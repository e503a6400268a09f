// Package engine implements the findRules algorithm of Figure 4 (Section 4
// of the paper): metaquery answering driven by a complete hypertree
// decomposition of the body, with semijoin full-reducer passes (the
// "first half" and "second half" of Section 4), early support-based pruning
// (enoughSupport), and head search (findHeads).
//
// The public surface is organized around two reusable objects:
//
//   - Engine (session.go) binds to one database and caches the
//     database-level structures every search consults: the candidate index
//     (relations bucketed by arity, memoized pattern candidates) and the
//     materialized atom tables.
//   - Prepared (prepare.go) binds an Engine to one metaquery and caches the
//     query-level analysis: validation, the hypertree decomposition, the
//     bottom-up node order, and the node-join cache. A Prepared can be
//     executed many times and from many goroutines concurrently.
//
// Every execution mode consumes the one incremental body-search iterator
// of search.go, which yields complete body instantiations lazily:
//
//   - FindRules (prepare.go) enumerates heads for every body and returns
//     the full sorted answer set;
//   - Stream (stream.go) yields answers incrementally so consumers can
//     abandon the search early;
//   - ExplainRun (explain.go) is FindRules recording the per-node
//     estimate-vs-actual plan report;
//   - DecideFirst (decide.go) is the dedicated first-witness decision path:
//     it checks a single index, skips head enumeration when the index makes
//     heads irrelevant, visits nodes smallest-estimated-table first, and
//     stops at the first admissible witness;
//   - DecideApprox (decide_approx.go) runs the same decider with a sampled
//     ε–δ fraction test in place of the exact counts.
//
// The three enumerating modes share one producer (Prepared.enumerate) and
// FindRules and ExplainRun one collector; both decision modes share one
// driver (Prepared.decide). Every mode walks heads through one head loop
// and counts support through one body-atom loop (heads.go). With
// Options.Workers > 1 every mode above except DecideApprox runs on one
// worker pool (parallel.go), which shards the first visited node's
// candidates and differs per mode only in the consumer each worker
// installs.
//
// Executions take a context.Context and stop promptly with ctx.Err() on
// cancellation.
//
// The engine is differentially tested against the naive reference
// implementation in internal/core; both compute the answer set
//
//	{ σ : sup(σ(MQ)) > ksup ∧ cvr(σ(MQ)) > kcvr ∧ cnf(σ(MQ)) > kcnf }
//
// with exact rational index values.
package engine

import (
	"fmt"

	"github.com/mqgo/metaquery/internal/approx"
	"github.com/mqgo/metaquery/internal/core"
	"github.com/mqgo/metaquery/internal/obs"
)

// Options configures a findRules run. Every run executes the whole
// Figure 4 algorithm: the minimal-width hypertree decomposition, both
// semijoin full-reducer halves, the enoughSupport check, and joins ordered
// by the cost-based planner over the engine's statistics. The options
// choose what is searched and how the work is scheduled, not which parts
// of the algorithm run.
type Options struct {
	// Type selects the instantiation semantics (type-0/1/2).
	Type core.InstType
	// Thresholds are the strict admissibility thresholds. Disabled checks
	// are reported but not filtered (and disable the related pruning).
	Thresholds core.Thresholds
	// Limit, when positive, stops the search after this many answers.
	//
	// Deprecated as the decision idiom: to answer a decision problem, use
	// Prepared.DecideFirst (or Engine.Decide), which short-circuits on the
	// first witness without paying the full enumeration machinery. Limit
	// remains the right tool for top-k style enumeration cutoffs.
	Limit int

	// Workers, when greater than 1, shards the first decomposition node's
	// candidate atoms across this many goroutines — on every exact
	// execution path, all through one worker pool (parallel.go).
	// DecideFirst workers share a first-witness cancellation; FindRules,
	// Stream and ExplainRun workers feed a merged result stream, which
	// makes Stream's answer order nondeterministic (FindRules and
	// ExplainRun sort, so their results are unchanged). 0 and 1 both mean
	// sequential runs. Queries whose first node has no pattern scheme (or
	// fewer than two candidate atoms) always run sequentially.
	Workers int

	// Approx configures the sampling-based ε–δ decision path
	// (Prepared.DecideApprox). The zero value disables it; setting Epsilon
	// and Delta enables it for DecideApprox runs only — enumeration paths
	// and DecideFirst always stay exact.
	Approx ApproxOptions

	// Tracer, when non-nil, records a span tree of every execution on this
	// Prepared: epoch binding, node joins (cache hit/miss with
	// estimate-vs-actual row counts), parallel worker chunks, and approx
	// sampling/escalation. nil — the default — is the zero-allocation
	// disabled tracer; the instrumentation then costs a nil check per
	// site. Per-request tracing without re-preparing goes through
	// obs.WithTracer on the execution context instead (the server's path:
	// Options participate in its prepared-cache key).
	Tracer *obs.Tracer
}

// Stats reports search-effort counters for experiments and benchmarks.
type Stats struct {
	// Width is the hypertree width of the decomposition used.
	Width int
	// Nodes is the number of decomposition nodes.
	Nodes int
	// BodyCandidatesTried counts node-level instantiation extensions.
	BodyCandidatesTried int
	// BodiesPrunedEmpty counts body branches cut because a node table was
	// empty after reduction.
	BodiesPrunedEmpty int
	// BodiesReachedRoot counts complete body instantiations.
	BodiesReachedRoot int
	// BodiesPrunedSupport counts bodies rejected by enoughSupport.
	BodiesPrunedSupport int
	// HeadsTried counts head instantiations examined.
	HeadsTried int
	// HeadsSkipped counts bodies accepted as decision witnesses without
	// enumerating (or evaluating) any head candidate: on support decisions
	// the index is head-independent, so DecideFirst only picks a compatible
	// head assignment instead of searching one.
	HeadsSkipped int
	// Answers is the number of rules returned.
	Answers int
	// SamplesDrawn counts the rows drawn by DecideApprox's fraction
	// samplers (0 on exact runs).
	SamplesDrawn int
	// ApproxEscalated counts the sampled fractions whose confidence
	// interval never cleared the threshold and were therefore resolved
	// exactly: by drawing the whole population, by the exact semijoin
	// kernels after the budget ran out, or because a sampled accept was
	// overturned by its exact confirmation.
	ApproxEscalated int
}

// ApproxOptions configures the ε–δ approximate decision path; see
// Prepared.DecideApprox for the semantics. The zero value disables it.
type ApproxOptions struct {
	// Epsilon is the indifference half-band around the threshold: for true
	// index values outside [k−ε, k+ε] the sampled verdict is wrong with
	// probability at most Delta; inside the band the decider escalates to
	// exact evaluation instead of guessing. Must be in (0, 1) when set.
	Epsilon float64
	// Delta bounds the probability of a wrong sampled verdict (and because
	// sampled YES verdicts are confirmed exactly before becoming
	// witnesses, in practice only NO verdicts carry it). Must be in (0, 1)
	// when set.
	Delta float64
	// MaxSamples is the per-fraction sample budget before escalating to
	// the exact kernels. 0 derives approx.SamplesFor(Epsilon, Delta/16) —
	// enough draws that an interval still straddling the threshold at the
	// budget certifies the fraction lies within the ±ε band.
	MaxSamples int
	// Seed fixes the sampling randomness: every random choice the approx
	// decider makes derives deterministically from it (0 means a fixed
	// default seed, not a random one), so decisions — and diff/fuzz
	// repros — replay identically for identical inputs.
	Seed int64
}

// Enabled reports whether the approximate path is configured.
func (a ApproxOptions) Enabled() bool { return a.Epsilon != 0 || a.Delta != 0 }

// validate rejects half-configured or out-of-range approx options at
// Prepare time, where every other option is fixed too.
func (a ApproxOptions) validate() error {
	if !a.Enabled() {
		return nil
	}
	return approx.Params{Epsilon: a.Epsilon, Delta: a.Delta, MaxSamples: a.MaxSamples}.Validate()
}

// errLimit signals early termination once Options.Limit answers were found.
var errLimit = fmt.Errorf("engine: answer limit reached")

// errStop signals that a streaming consumer stopped iterating.
var errStop = fmt.Errorf("engine: consumer stopped iteration")

// errFound signals that a decision run hit its first admissible witness.
var errFound = fmt.Errorf("engine: decision witness found")
