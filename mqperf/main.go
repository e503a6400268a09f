// Command mqperf is the serving benchmark: it boots internal/server
// in-process on a loopback listener, loads a seeded workload's databases
// through POST /v1/db/{name}, drives the server with one closed-loop client
// for a fixed time, checks every answer against direct engine calls, and
// prints every metric by name with its unit. The last line of its output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Run it through run.sh from the repository root:
//
//	bash mqperf/run.sh --workload mine --seed 1 --seconds 35 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the workload
// untraced and then traced (half the time each), times each layer by
// direct calls on a shadow Engine, and reports the per-layer metrics; the
// spans go to <out>/trace-<workload>.json, replacing the previous run's.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// A run boots, loads and warms a server at least minSetups times and until
// setupTime has passed (at most maxSetups times); setup_s is the median and
// the last server is the one measured.
const (
	minSetups = 5
	maxSetups = 25
	setupTime = 2 * time.Second
)

// rampTime is the unmeasured traffic between the warm pass and the
// measured window, long enough for the heap and the GC pacer to settle.
const rampTime = 2 * time.Second

func main() {
	var (
		name    = flag.String("workload", "", "workload: mine, decide or churn")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 30, "measured seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		out     = flag.String("out", ".bench_build", "directory for trace files")
	)
	flag.Parse()
	ok, err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mqperf:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(2)
	}
}

func run(name string, seed int64, d time.Duration, traced bool, out string) (bool, error) {
	wl, err := lookupWorkload(name)
	if err != nil {
		return false, err
	}
	ctx := context.Background()
	env := stamp(name, seed, traced)
	blob, _ := json.Marshal(env)
	fmt.Printf("# env %s\n# workload %s: %s\n", blob, wl.name, wl.why)
	for _, p := range wl.predict {
		fmt.Printf("# predict %s\n", p)
	}

	in := wl.build(seed)
	db, err := buildDB(in.main.rels)
	if err != nil {
		return false, err
	}
	if err := fixBands(ctx, in, db); err != nil {
		return false, err
	}
	ref, err := computeReference(ctx, in, db)
	if err != nil {
		return false, err
	}
	for i, d := range in.decisions {
		fmt.Printf("# decision %q type %d: %s > %s (eps %.3f) is %v\n", d.query, d.typ, d.index, d.k, d.eps, *ref.verdict[i])
	}
	live := ref
	if in.churn {
		// Reads see the PATCHes before them; they are checked once the
		// PATCH cycle is finished.
		live = &reference{search: make([]*digest, len(in.searches)), verdict: make([]*bool, len(in.decisions))}
	}
	b, err := encodeBodies(in)
	if err != nil {
		return false, err
	}

	var setups, setupsWall []float64
	var h *harness
	for start := time.Now(); ; {
		runtime.GC() // each set-up starts from a clean heap, not the last one's garbage
		t0, c0 := time.Now(), cpuMS()
		if h, err = boot(in, live, b); err != nil {
			return false, err
		}
		if err := h.warm(ctx); err != nil {
			h.close()
			return false, err
		}
		setups = append(setups, (cpuMS()-c0)/1e3)
		setupsWall = append(setupsWall, time.Since(t0).Seconds())
		n := len(setups)
		if n >= maxSetups || n >= minSetups && time.Since(start) >= setupTime {
			break
		}
		h.close()
	}
	defer h.close()

	ramp := h.window(rampTime, false)
	m := metrics{}
	var w *windowResult
	if !traced {
		w = h.window(d, false)
		if err := h.finishCycle(ctx); err != nil {
			return false, err
		}
		scale := refProbeMS / median(w.probes)
		m.set("setup_s", median(setups)*scale, "s")
		endToEnd(w, m, scale)
		m.set("live_heap_mb", liveHeapMB(), "MB")
	} else {
		w = h.window(d/2, false)
		tw := h.window(d/2, true)
		perLayer(w, tw, m)
		m.set("wall.setup_s", median(setupsWall), "s")
		fold := traceMetrics(tw.traced, m)
		spans, err := layerCalls(ctx, in, m)
		if err != nil {
			return false, err
		}
		m.set("server.apply_overhead_ms", percentile(w.lat[opPatch], 0.5)-m["engine.apply_ms"].Value, "ms")
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		m.set("runtime.sys_mb", float64(ms.Sys)/(1<<20), "MB")
		printFold(fold)
		file := filepath.Join(out, "trace-"+name+".json")
		if err := writeTrace(file, env, tw.traced, spans, fold); err != nil {
			return false, err
		}
		fmt.Printf("# spans written to %s\n", file)
		w.merge(&tw.tally)
		w.seconds += tw.seconds
		m.set("error_ratio", ratio(w.totalFailed(), w.totalAttempted()), "ratio")
		if err := h.finishCycle(ctx); err != nil {
			return false, err
		}
	}

	fmt.Printf("# host steal %.4f of CPU time during the window\n", w.stealShare())
	fmt.Printf("# probe median %.4f ms CPU over %d runs\n", median(w.probes), len(w.probes))
	n, bad := h.finalCheck(ctx, ref)
	for op := 0; op < numOps; op++ {
		fmt.Printf("# samples %-6s completed=%d failed=%d\n", opNames[op], w.completed(op), w.failed[op])
	}
	w.merge(&ramp.tally) // the ramp is unmeasured but checked
	attempted, failed := w.totalAttempted()+n, w.totalFailed()+bad
	if w.firstErr != nil {
		fmt.Printf("# first error: %v\n", w.firstErr)
	}
	m.print()
	correct := failed == 0
	line, err := json.Marshal(map[string]any{"correct": correct, "attempted": attempted, "failed": failed, "metrics": m})
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return correct, nil
}

// refProbeMS is the probe's CPU time on the reference host that the
// end-to-end timings are scaled to.
const refProbeMS = 1.0

// endToEnd computes the end-to-end metrics of an untraced window. Timings
// are process CPU time (see cpuMS), which leaves out the time a shared
// host's hypervisor gives to other guests, multiplied by scale: the
// reference probe time over the probe's median time in this window (see
// probe). The host's own speed moved CPU times by up to a third between
// runs half an hour apart; it moves the probe alike, so the scaled figure
// is the CPU time the run would have taken on a host that runs the probe in
// refProbeMS. Raw figures: multiply by host.probe_ms; wall-clock ones are
// per-layer metrics (see perLayer).
//
// The tail is the 98th percentile: a request is charged the collector's
// marking work done while it runs, which on decide lifts about one PATCH
// in a hundred by 1-2 ms; the 99th percentile sat on that step, and
// resampling one run's PATCH times moved it by over a quarter. Every class
// has over 1,000 samples in a run, so over 20 lie beyond the 98th.
func endToEnd(w *windowResult, m metrics, scale float64) {
	searches := w.completedAll(opQuery, opStream, opDecide, opApprox)
	m.set("searches_per_ref_s", float64(searches)/(w.cpuS*scale), "1/s")
	m.set("answers_per_ref_s", float64(w.answers)/(w.cpuS*scale), "1/s")
	timings(m, w.cpu, w.firstCPU, "p98", 0.98, scale, func(class, p string) string { return class + "_ref_" + p + "_ms" })
	m.set("allocs_per_req", float64(w.mem1.Mallocs-w.mem0.Mallocs)/float64(searches+w.completed(opPatch)), "count")
}

// timings sets the median and one tail percentile (tail, named tailName)
// of each request class from per-class samples lat and the streams' time
// to their first line, times scale, naming each metric name(class,
// percentile).
func timings(m metrics, lat [numOps][]float64, first []float64, tailName string, tail, scale float64, name func(class, p string) string) {
	m.set(name("stream_first", "p50"), scale*percentile(first, 0.5), "ms")
	for op, class := range opNames {
		if op != opStream {
			m.set(name(class, "p50"), scale*percentile(lat[op], 0.5), "ms")
		}
		m.set(name(class, tailName), scale*percentile(lat[op], tail), "ms")
	}
}

// perLayer computes the per-layer metrics read from responses, server
// counters and the runtime: from the untraced window w, except the
// tracing overhead, which compares w with the traced window tw.
func perLayer(w, tw *windowResult, m metrics) {
	m.set("server.overhead_ms", median(w.overhead), "ms")
	m.set("server.resp_kb", float64(w.respBytes[opQuery])/1024/float64(w.completed(opQuery)), "KiB")
	hits := w.srv1.CacheHits - w.srv0.CacheHits
	misses := w.srv1.CacheMisses - w.srv0.CacheMisses
	m.set("server.prep_hit_ratio", ratio(int(hits), int(hits+misses)), "ratio")
	m.set("server.shed", float64(w.srv1.Rejected-w.srv0.Rejected+tw.srv1.Rejected-tw.srv0.Rejected), "count")

	st, n := w.st, float64(w.completedAll(opQuery, opDecide))
	m.set("engine.candidates_per_req", float64(st.Candidates)/n, "count")
	m.set("engine.bodies_per_req", float64(st.Bodies)/n, "count")
	m.set("engine.heads_per_req", float64(st.HeadsTried)/n, "count")
	m.set("engine.answers_per_req", float64(st.Answers)/n, "count")
	m.set("engine.pruned_support_per_req", float64(st.PrunedSupport)/n, "count")
	m.set("engine.answer_yield", ratio(st.Answers, st.HeadsTried), "ratio")
	m.set("engine.body_yield", ratio(st.Bodies, st.Candidates), "ratio")
	m.set("engine.heads_skipped_ratio", ratio(st.HeadsSkipped, st.HeadsSkipped+st.HeadsTried), "ratio")
	m.set("approx.samples_per_req", float64(w.approxSt.SamplesDrawn)/float64(w.completed(opApprox)), "count")

	all := []int{opQuery, opStream, opDecide, opApprox, opPatch}
	ops := w.completedAll(all...)
	m.set("runtime.alloc_mb_per_req", float64(w.mem1.TotalAlloc-w.mem0.TotalAlloc)/(1<<20)/float64(ops), "MB")
	gcs := w.mem1.NumGC - w.mem0.NumGC
	m.set("runtime.gc_cycles_per_s", float64(gcs)/w.seconds, "1/s")
	pause := 0.0
	if gcs > 0 {
		pause = float64(w.mem1.PauseTotalNs-w.mem0.PauseTotalNs) / 1e6 / float64(gcs)
	}
	m.set("runtime.gc_pause_ms", pause, "ms")
	untraced := float64(ops) / w.seconds
	m.set("trace.overhead_ratio", untraced/(float64(tw.completedAll(all...))/tw.seconds), "ratio")

	// The end-to-end figures on the wall clock, as the client saw them.
	timings(m, w.lat, w.firstMS, "p99", 0.99, 1, func(class, p string) string { return "wall." + class + "_" + p + "_ms" })
	m.set("wall.throughput_rps", float64(w.completedAll(opQuery, opStream, opDecide, opApprox))/w.seconds, "1/s")
	m.set("wall.answers_per_s", float64(w.answers)/w.seconds, "1/s")
	m.set("host.steal_ratio", w.stealShare(), "ratio")
	m.set("host.probe_ms", median(w.probes), "ms")
}

// liveHeapMB is the heap retained after two forced collections: pooled
// scratch survives the first one in sync.Pool's victim cache.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

func (m metrics) print() {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-34s %14.6f %s\n", n, m[n].Value, m[n].Unit)
	}
}

func printFold(fold map[string]float64) {
	names := make([]string, 0, len(fold))
	for n := range fold {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return fold[names[i]] > fold[names[j]] })
	for _, n := range names {
		fmt.Printf("# self %-20s %12.3f ms\n", n, fold[n])
	}
}

func writeTrace(file string, env map[string]any, reqs []tracedReq, spans []benchSpan, fold map[string]float64) error {
	if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
		return err
	}
	f, err := os.Create(file)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(map[string]any{"env": env, "requests": reqs, "direct": spans, "self_ms": fold})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// stamp records the environment a result was measured in.
func stamp(name string, seed int64, traced bool) map[string]any {
	return map[string]any{
		"workload":   name,
		"seed":       seed,
		"trace":      traced,
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"commit":     os.Getenv("MQPERF_COMMIT"),
		"source":     sourceDigest("."),
	}
}

// sourceDigest hashes every .go and go.mod file under root, so that a
// result from a checkout without version control still names its code.
func sourceDigest(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return nil
		}
		defer f.Close()
		io.WriteString(h, path)
		io.Copy(h, f)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
