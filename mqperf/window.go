package main

import (
	"context"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/mqgo/metaquery/internal/obs"
	"github.com/mqgo/metaquery/internal/server"
)

// tally is what a closed-loop window observed.
type tally struct {
	lat       [numOps][]float64 // wall-clock latency, ms
	cpu       [numOps][]float64 // process CPU time, ms
	firstMS   []float64         // /v1/stream wall-clock time to the first line
	firstCPU  []float64         // /v1/stream CPU time to the first line
	attempted [numOps]int
	failed    [numOps]int
	firstErr  error
	answers   int
	respBytes [numOps]int
	overhead  []float64 // client latency minus server elapsed_ms
	st        statsJSON // summed response stats of query and exact decide
	approxSt  statsJSON // summed response stats of approximate decide
	traced    []tracedReq
}

// tracedReq is one traced request: the benchmark's client span and the
// span trees the server returned for it.
type tracedReq struct {
	Op    string          `json:"op"`
	Start float64         `json:"start_ms"`
	DurMS float64         `json:"dur_ms"`
	Trees []*obs.SpanTree `json:"server"`
}

func (t *tally) record(r result, err error) {
	t.attempted[r.op]++
	if err != nil {
		t.failed[r.op]++
		if t.firstErr == nil {
			t.firstErr = err
		}
		return
	}
	t.lat[r.op] = append(t.lat[r.op], r.ms)
	t.cpu[r.op] = append(t.cpu[r.op], r.cpu)
	t.respBytes[r.op] += r.bytes
	t.answers += r.answers
	switch r.op {
	case opStream:
		t.firstMS = append(t.firstMS, r.firstMS)
		t.firstCPU = append(t.firstCPU, r.firstCPU)
	case opQuery, opDecide, opApprox:
		t.overhead = append(t.overhead, r.ms-r.elapsed)
		dst := &t.st
		if r.op == opApprox {
			dst = &t.approxSt
		}
		if r.stats != nil {
			dst.add(r.stats)
		}
	}
}

func (t *tally) merge(o *tally) {
	for op := 0; op < numOps; op++ {
		t.lat[op] = append(t.lat[op], o.lat[op]...)
		t.cpu[op] = append(t.cpu[op], o.cpu[op]...)
		t.attempted[op] += o.attempted[op]
		t.failed[op] += o.failed[op]
		t.respBytes[op] += o.respBytes[op]
	}
	t.firstMS = append(t.firstMS, o.firstMS...)
	t.firstCPU = append(t.firstCPU, o.firstCPU...)
	t.overhead = append(t.overhead, o.overhead...)
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
	t.answers += o.answers
	t.st.add(&o.st)
	t.approxSt.add(&o.approxSt)
	t.traced = append(t.traced, o.traced...)
}

func (t *tally) completed(op int) int { return len(t.lat[op]) }

// completedAll counts the completed requests of the given classes.
func (t *tally) completedAll(ops ...int) (n int) {
	for _, op := range ops {
		n += t.completed(op)
	}
	return n
}

func (t *tally) totalAttempted() (n int) {
	for op := 0; op < numOps; op++ {
		n += t.attempted[op]
	}
	return n
}

func (t *tally) totalFailed() (n int) {
	for op := 0; op < numOps; op++ {
		n += t.failed[op]
	}
	return n
}

// windowResult is a closed-loop window plus the process and server
// counters around it.
type windowResult struct {
	tally
	seconds float64
	mem0    runtime.MemStats
	mem1    runtime.MemStats
	srv0    server.Stats
	srv1    server.Stats
	cpuS    float64   // process CPU time over the window, probes left out
	probes  []float64 // CPU time of each probe run, ms
	host0   hostCPU
	host1   hostCPU
}

// hostCPU is the machine's CPU time from /proc/stat, in clock ticks: all of
// it, and the part stolen by the hypervisor for other guests.
type hostCPU struct{ total, steal uint64 }

// readHostCPU reads hostCPU; it is zero where /proc/stat is missing.
func readHostCPU() hostCPU {
	var c hostCPU
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return c
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	for i := 1; i < len(fields) && i <= 8; i++ { // user .. steal
		v, _ := strconv.ParseUint(fields[i], 10, 64)
		c.total += v
		if i == 8 {
			c.steal = v
		}
	}
	return c
}

// stealShare is the share of the machine's CPU time the hypervisor gave to
// other guests during the window: a host-side cause of slow figures.
func (w *windowResult) stealShare() float64 {
	return ratio(int(w.host1.steal-w.host0.steal), int(w.host1.total-w.host0.total))
}

// window drives the workload's closed-loop client for d: it sends its
// next request only after the previous one completed, cycling through the
// schedule, and sends nothing new once d has passed.
func (h *harness) window(d time.Duration, traced bool) *windowResult {
	w := &windowResult{}
	runtime.GC()
	runtime.ReadMemStats(&w.mem0)
	w.srv0 = h.srv.Stats()
	w.host0 = readHostCPU()
	c0 := cpuMS()
	start := time.Now()
	deadline := start.Add(d)
	var next [numOps]int
	for i := 0; time.Now().Before(deadline); i++ {
		op := h.in.schedule[i%len(h.in.schedule)]
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		r, err := h.run(ctx, op, next[op], traced)
		cancel()
		next[op]++
		w.record(r, err)
		if traced && err == nil && op != opPatch {
			w.traced = append(w.traced, tracedReq{
				Op: opNames[op], Start: float64(r.start.Sub(start).Nanoseconds()) / 1e6,
				DurMS: r.ms, Trees: r.trace,
			})
		}
		if i%len(h.in.schedule) == len(h.in.schedule)-1 {
			w.probes = append(w.probes, probe())
		}
	}
	if len(w.probes) == 0 {
		w.probes = append(w.probes, probe())
	}
	w.seconds = time.Since(start).Seconds()
	w.host1 = readHostCPU()
	w.cpuS = (cpuMS() - c0 - sum(w.probes)) / 1e3
	runtime.ReadMemStats(&w.mem1)
	w.srv1 = h.srv.Stats()
	return w
}

// The probe's working set, allocated once so that the probe adds no
// allocations, and so no collector work, to the window it measures.
var (
	probeXs   = make([]int, 1<<12)
	probeMap  = make(map[int]int, 1<<11)
	probeSink int
)

// probe runs a fixed computation that shares no code with the program
// measured, a mix of what a request does (hashing, sorting, scattered
// reads over a few hundred KiB), and returns the process CPU time it took,
// in ms: how fast this host runs now. The window runs it once per schedule
// cycle, between requests, and leaves it out of cpuS.
func probe() float64 {
	c0 := cpuMS()
	xs, m, n := probeXs, probeMap, len(probeXs)
	clear(m)
	x := uint64(88172645463325252)
	for i := range xs {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		xs[i] = int(x % uint64(4*n))
		m[xs[i]&(n-1)] += i
	}
	sort.Ints(xs)
	acc := 0
	for i := 0; i < 4*n; i++ {
		acc += xs[(i*7919)&(n-1)] + m[i&(n-1)]
	}
	probeSink += acc
	return cpuMS() - c0
}
