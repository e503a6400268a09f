package engine

import (
	"context"

	"github.com/mqgo/metaquery/internal/obs"
)

// This file wires the observability layer (internal/obs) into the engine:
// per-Engine execution histograms and per-run tracer resolution. The
// disabled defaults — no metrics enabled, no tracer configured — cost the
// hot paths a nil check each, preserving the pooled zero-alloc steady
// state.

// Metrics are an Engine's cumulative execution histograms, shared by every
// run on the engine once enabled. All fields are lock-free atomic
// histograms; recording is safe from any number of concurrent runs.
type Metrics struct {
	// NodeJoin records the wall time of node-join cache misses (the joins
	// actually executed), in nanoseconds.
	NodeJoin obs.Histogram
	// EstActualRatio records the planner's estimate quality per executed
	// node join as round((actual+1)/(estimate+1) · 1000): 1000 is a
	// perfect estimate, 2000 a 2x underestimate, 500 a 2x overestimate.
	EstActualRatio obs.Histogram
}

// EnableMetrics turns on the engine's execution histograms (idempotent)
// and returns them. Runs started before the call may finish unrecorded.
func (e *Engine) EnableMetrics() *Metrics {
	if m := e.obsm.Load(); m != nil {
		return m
	}
	m := &Metrics{}
	if e.obsm.CompareAndSwap(nil, m) {
		return m
	}
	return e.obsm.Load()
}

// Metrics returns the engine's execution histograms, or nil when
// EnableMetrics was never called.
func (e *Engine) Metrics() *Metrics { return e.obsm.Load() }

// resolveTracer picks the run's tracer: an explicitly configured
// Options.Tracer wins; otherwise a context-injected tracer
// (obs.WithTracer) applies — the server threads per-request tracers
// through the context because Options participate in its prepared-cache
// key and must not vary per request. Both unset is the common case and
// returns nil, the zero-cost disabled tracer.
func resolveTracer(ctx context.Context, opt Options) *obs.Tracer {
	if opt.Tracer != nil {
		return opt.Tracer
	}
	return obs.FromContext(ctx)
}

// tracedEpoch resolves the execution epoch, recording a bind-epoch span
// when tracing: the span's rebound attr reports whether this resolution
// re-derived the per-epoch state (a delta landed since the last
// execution).
func (p *Prepared) tracedEpoch(tr *obs.Tracer) *prepEpoch {
	if tr == nil {
		return p.epoch()
	}
	prev := p.ep.Load()
	sp := tr.Begin(-1, "bind-epoch")
	ep := p.epoch()
	tr.End(sp, obs.AInt("epoch", int(ep.snap.epoch)), obs.ABool("rebound", ep != prev))
	return ep
}

// ratioPerMille encodes actual/estimated rows for the EstActualRatio
// histogram with +1 smoothing, so zero estimates and empty joins stay
// finite.
func ratioPerMille(est float64, actual int) uint64 {
	if est < 0 {
		est = 0
	}
	r := (float64(actual) + 1) / (est + 1) * 1000
	if r < 0 {
		return 0
	}
	return uint64(r + 0.5)
}

// beginRoot opens the execution's root span under the run's current
// parent (-1 for top level, or a parallel coordinator's span) and makes
// it the parent of the spans the search records. It also zeroes the
// scratch's kernel tally so endRoot reports this execution's operator
// profile. No-op when untraced.
func (r *run) beginRoot(name string) {
	if r.tr == nil {
		return
	}
	r.sc.ResetOps()
	r.rootSpan = r.tr.Begin(r.span, name)
	r.span = r.rootSpan
}

// endRoot closes the execution's root span with the run's headline
// counters, the scratch kernel profile and any extra attrs (a parallel
// chunk's worker and candidate count). Safe to defer unconditionally.
func (r *run) endRoot(extra ...obs.Attr) {
	if r.tr == nil || r.rootSpan < 0 {
		return
	}
	ops := r.sc.Ops()
	r.tr.End(r.rootSpan, append([]obs.Attr{
		obs.AInt("bodies", r.stats.BodiesReachedRoot),
		obs.AInt("answers", r.stats.Answers),
		obs.AInt("semijoins", int(ops.Semijoins)),
		obs.AInt("semijoin_counts", int(ops.SemijoinCounts)),
		obs.AInt("key_indexes", int(ops.KeyIndexes)),
		obs.AInt("projections", int(ops.Projections))}, extra...)...)
	r.rootSpan = -1
}
