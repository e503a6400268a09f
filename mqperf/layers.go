package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"

	"github.com/mqgo/metaquery/internal/core"
	"github.com/mqgo/metaquery/internal/engine"
	"github.com/mqgo/metaquery/internal/obs"
	"github.com/mqgo/metaquery/internal/rat"
	"github.com/mqgo/metaquery/internal/relation"
)

// benchSpan is one span the benchmark records around a direct call into a
// layer.
type benchSpan struct {
	Name  string  `json:"name"`
	DurMS float64 `json:"dur_ms"`
}

// directBudget bounds each repeated direct call series.
const directBudget = 400 * time.Millisecond

// direct times each layer by calling its public functions on a shadow
// Engine built from the workload's own inputs, outside the server. Each
// call is one benchSpan; the metrics are medians per call.
type direct struct {
	spans []benchSpan
}

// series calls fn(i) for i = 0, 1, ... at least min times and then until
// directBudget has passed, and returns the median duration in ms.
func (d *direct) series(name string, min int, fn func(i int) error) (float64, error) {
	var ds []float64
	start := time.Now()
	for i := 0; i < min || time.Since(start) < directBudget; i++ {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		ms := msSince(t0)
		ds = append(ds, ms)
		d.spans = append(d.spans, benchSpan{Name: name, DurMS: ms})
	}
	return median(ds), nil
}

// layerCalls measures the direct per-layer metrics.
func layerCalls(ctx context.Context, in *inputs, m metrics) ([]benchSpan, error) {
	d := &direct{}
	var db *relation.Database
	v, err := d.series("relation.db_build", 3, func(int) error {
		var err error
		db, err = buildDB(in.main.rels)
		return err
	})
	if err != nil {
		return nil, err
	}
	m.set("relation.db_build_ms", v, "ms")
	var eng *engine.Engine
	if v, err = d.series("engine.new_engine", 3, func(int) error {
		eng = engine.NewEngine(db)
		return nil
	}); err != nil {
		return nil, err
	}
	m.set("engine.new_engine_ms", v, "ms")

	var texts []string
	for _, s := range in.searches {
		texts = append(texts, s.Query)
	}
	for _, dc := range in.decisions {
		texts = append(texts, dc.query)
	}
	if v, err = d.series("core.parse", 200, func(i int) error {
		_, _, err := parseQuery(texts[i%len(texts)])
		return err
	}); err != nil {
		return nil, err
	}
	m.set("core.parse_us", v*1e3, "us")

	searches := make([]*engine.Prepared, len(in.searches))
	if v, err = d.series("engine.prepare", len(searches), func(i int) error {
		s := in.searches[i%len(searches)]
		mq, _, err := parseQuery(s.Query)
		if err != nil {
			return err
		}
		opt, err := searchOptions(s)
		if err != nil {
			return err
		}
		searches[i%len(searches)], err = eng.Prepare(mq, opt)
		return err
	}); err != nil {
		return nil, err
	}
	m.set("engine.prepare_ms", v, "ms")
	for _, p := range searches { // warm the node-join caches, as the server's warm pass does
		if _, err := p.FindRules(ctx); err != nil {
			return nil, err
		}
	}
	if v, err = d.series("engine.findrules", len(searches), func(i int) error {
		_, err := searches[i%len(searches)].FindRules(ctx)
		return err
	}); err != nil {
		return nil, err
	}
	m.set("engine.findrules_ms", v, "ms")
	if v, err = d.series("engine.stream_first", len(searches), func(i int) error {
		for _, err := range searches[i%len(searches)].Stream(ctx) {
			return err
		}
		return nil
	}); err != nil {
		return nil, err
	}
	m.set("engine.stream_first_ms", v, "ms")

	type decision struct {
		exact, approx *engine.Prepared
		ix            core.Index
		k             rat.Rat
	}
	var decs []decision
	for _, dc := range in.decisions {
		mq, _, err := parseQuery(dc.query)
		if err != nil {
			return nil, err
		}
		x := decision{}
		if x.ix, err = parseIndex(dc.index); err != nil {
			return nil, err
		}
		if x.k, err = rat.Parse(dc.k); err != nil {
			return nil, err
		}
		opt := engine.Options{Type: core.InstType(dc.typ), Workers: dc.workers}
		if x.exact, err = eng.Prepare(mq, opt); err != nil {
			return nil, err
		}
		opt = engine.Options{Type: core.InstType(dc.typ), Approx: engine.ApproxOptions{Epsilon: dc.eps, Delta: approxDelta}}
		if x.approx, err = eng.Prepare(mq, opt); err != nil {
			return nil, err
		}
		if _, _, err := x.exact.DecideFirst(ctx, x.ix, x.k); err != nil {
			return nil, err
		}
		if _, _, err := x.approx.DecideApprox(ctx, x.ix, x.k); err != nil {
			return nil, err
		}
		decs = append(decs, x)
	}
	if v, err = d.series("engine.decide", len(decs), func(i int) error {
		x := decs[i%len(decs)]
		_, _, err := x.exact.DecideFirst(ctx, x.ix, x.k)
		return err
	}); err != nil {
		return nil, err
	}
	m.set("engine.decide_ms", v, "ms")
	if v, err = d.series("engine.decide_approx", len(decs), func(i int) error {
		x := decs[i%len(decs)]
		_, _, err := x.approx.DecideApprox(ctx, x.ix, x.k)
		return err
	}); err != nil {
		return nil, err
	}
	m.set("engine.decide_approx_ms", v, "ms")

	// Apply runs the PATCH sequence once through on a shadow engine over
	// the database the workload's PATCH traffic targets.
	pdb, err := buildDB(in.patchDB().rels)
	if err != nil {
		return nil, err
	}
	peng := engine.NewEngine(pdb)
	if v, err = d.series("engine.apply", len(in.script), func(i int) error {
		_, err := peng.Apply(ctx, engineDelta(in.script[i%len(in.script)]))
		return err
	}); err != nil {
		return nil, err
	}
	m.set("engine.apply_ms", v, "ms")
	return d.spans, nil
}

func engineDelta(d jsonDelta) engine.Delta {
	var out engine.Delta
	for _, rd := range d.Relations {
		out.Relations = append(out.Relations, engine.RelationDelta{Name: rd.Name, Insert: rd.Insert, Delete: rd.Delete})
	}
	return out
}

// runRoots are the engine's execution root spans (beginRoot): their self
// time is the search itself, head search and answer materialization
// included, and they carry the relation kernel counts as attrs.
var runRoots = map[string]bool{"findrules": true, "stream": true, "decide": true, "decide-approx": true, "chunk": true}

// traceMetrics folds the traced requests into the trace-derived per-layer
// metrics, and returns the self time of every span name in ms (the
// benchmark's client spans as "client.<op>").
func traceMetrics(reqs []tracedReq, m metrics) map[string]float64 {
	fold := map[string]float64{}
	var (
		searchSelf, sampleMS                 []float64
		semijoins, counts, projections       int
		rebinds, missMS, missRows, estErr    []float64
		hits, misses, sampleSpans, escalated int
		imbalance                            []float64
	)
	for _, r := range reqs {
		self, samp, server := 0.0, 0.0, 0.0
		var walk func(n *obs.SpanTree)
		walk = func(n *obs.SpanTree) {
			s := selfUS(n) / 1e3
			fold[n.Name] += s
			switch n.Name {
			case "bind-epoch":
				if n.Attrs["rebound"] == "true" {
					rebinds = append(rebinds, n.DurUS/1e3)
				}
			case "node-join":
				if n.Attrs["cache"] == "hit" {
					hits++
					break
				}
				misses++
				rows, _ := strconv.ParseFloat(n.Attrs["rows"], 64)
				est, _ := strconv.ParseFloat(n.Attrs["est_rows"], 64)
				missMS = append(missMS, n.DurUS/1e3)
				missRows = append(missRows, rows)
				estErr = append(estErr, math.Abs(math.Log2((rows+1)/(est+1))))
			case "sample":
				samp += n.DurUS / 1e3
				sampleSpans++
				if n.Attrs["escalated"] == "true" {
					escalated++
				}
			case "decide-parallel", "stream-parallel":
				var durs []float64
				for _, c := range n.Children {
					if c.Name == "chunk" {
						durs = append(durs, c.DurUS)
					}
				}
				if len(durs) >= 2 {
					imbalance = append(imbalance, maxOf(durs)/mean(durs))
				}
			}
			if runRoots[n.Name] {
				self += s
				semijoins += atoi(n.Attrs["semijoins"])
				counts += atoi(n.Attrs["semijoin_counts"])
				projections += atoi(n.Attrs["projections"])
			}
			for _, c := range n.Children {
				walk(c)
			}
		}
		for _, t := range r.Trees {
			server += t.DurUS / 1e3
			walk(t)
		}
		fold["client."+r.Op] += r.DurMS - server
		searchSelf = append(searchSelf, self)
		if r.Op == opNames[opApprox] {
			sampleMS = append(sampleMS, samp)
		}
	}
	n := float64(len(reqs))
	m.set("engine.search_self_ms", mean(searchSelf), "ms")
	m.set("relation.semijoins_per_req", float64(semijoins)/n, "count")
	m.set("relation.semijoin_counts_per_req", float64(counts)/n, "count")
	m.set("relation.projections_per_req", float64(projections)/n, "count")
	m.set("engine.rebind_ms", mean(rebinds), "ms")
	m.set("engine.node_join_miss_ratio", ratio(misses, hits+misses), "ratio")
	m.set("engine.node_join_ms", mean(missMS), "ms")
	m.set("relation.node_join_rows", mean(missRows), "count")
	m.set("stats.est_error", median(estErr), "log2")
	m.set("engine.chunk_imbalance", mean(imbalance), "ratio")
	m.set("relation.sample_ms", mean(sampleMS), "ms")
	m.set("approx.escalated_ratio", ratio(escalated, sampleSpans), "ratio")
	return fold
}

// selfUS is n's duration minus the part of it its children cover
// (children of a parallel coordinator overlap, so their union counts).
func selfUS(n *obs.SpanTree) float64 {
	type iv struct{ a, b float64 }
	var ivs []iv
	for _, c := range n.Children {
		ivs = append(ivs, iv{math.Max(c.StartUS, n.StartUS), math.Min(c.StartUS+c.DurUS, n.StartUS+n.DurUS)})
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, end := 0.0, math.Inf(-1)
	for _, x := range ivs {
		if x.a > end {
			end = x.a
		}
		if x.b > end {
			covered += x.b - end
			end = x.b
		}
	}
	return math.Max(0, n.DurUS-covered)
}

func atoi(s string) int {
	v, _ := strconv.Atoi(s)
	return v
}
