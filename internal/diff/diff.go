// Package diff is the differential oracle harness: it runs one generated
// scenario (internal/gen) through every execution path of the repo — the
// naive enumerator, the findRules engine (cost-based planner), the
// Prepared/Stream session API (sequential and worker-pool parallel), the
// single-atom-body runs the pair-count memo serves, and
// the naive, engine-backed, first-witness
// (sequential and partitioned) and sampling ε–δ approximate
// deciders — and checks each against the transparent brute-force oracle
// (internal/oracle), rat-exact and order-insensitive. A disagreement anywhere is a bug in one of the
// production paths (or, symmetrically, in the oracle), and is reported as a
// Mismatch naming the path and the divergence.
//
// cmd/mqfuzz drives this package over seed ranges; TestDifferentialSweep
// pins a few hundred seeded cases into `go test ./...`; the corpus under
// testdata/corpus replays previously found (or representative) scenarios as
// regression tests. Failing scenarios shrink to committable repros through
// Minimize (ddmin over tuples, then a greedy structural polish).
package diff

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"github.com/mqgo/metaquery/internal/core"
	"github.com/mqgo/metaquery/internal/engine"
	"github.com/mqgo/metaquery/internal/gen"
	"github.com/mqgo/metaquery/internal/oracle"
	"github.com/mqgo/metaquery/internal/rat"
	"github.com/mqgo/metaquery/internal/relation"
)

// The harness drives the approximate decider under one fixed ε–δ contract:
// wide enough that the generated populations are covered by the sample
// budget (making the sweep deterministic), tight enough that the ±ε band
// around each derived bound stays meaningful.
const (
	// ApproxEps is the indifference half-band the harness grants the
	// sampled decider around each decision bound.
	ApproxEps = 0.125
	// ApproxDelta bounds the sampled decider's per-decision error
	// probability outside the band; the sweep gate checks the observed
	// out-of-band error rate against it.
	ApproxDelta = 0.125
	// ApproxBudget is the per-fraction sample cap. It exceeds every
	// generated population, so without-replacement sampling always covers
	// the population (which is exact) before guessing — the sweep therefore
	// tolerates zero out-of-band errors in practice while still walking the
	// whole sampling machinery.
	ApproxBudget = 4096
)

// ApproxCounts is oracle-derived confusion accounting for sampled
// decisions: positives are oracle-YES cases (the true max index exceeds the
// bound), so a false negative is a missed witness and a false positive a
// fabricated one.
type ApproxCounts struct {
	TP, FP, TN, FN int
	// InBand counts decisions whose true max index lies within ±ApproxEps
	// of the bound — the regime where the decider must escalate to exact
	// evaluation rather than guess.
	InBand int
	// OutFN counts false negatives outside the band: the only error the
	// ε–δ contract permits, at rate at most ApproxDelta.
	OutFN int
	// Escalated counts decisions reporting at least one escalation;
	// Samples totals the rows drawn.
	Escalated int
	Samples   int
	Decisions int
}

func (c *ApproxCounts) add(o ApproxCounts) {
	c.TP += o.TP
	c.FP += o.FP
	c.TN += o.TN
	c.FN += o.FN
	c.InBand += o.InBand
	c.OutFN += o.OutFN
	c.Escalated += o.Escalated
	c.Samples += o.Samples
	c.Decisions += o.Decisions
}

// ApproxTally accumulates per-shape ApproxCounts across a sweep. It is safe
// for concurrent RunTally calls.
type ApproxTally struct {
	mu     sync.Mutex
	shapes map[string]*ApproxCounts
}

// NewApproxTally returns an empty tally.
func NewApproxTally() *ApproxTally {
	return &ApproxTally{shapes: map[string]*ApproxCounts{}}
}

func (t *ApproxTally) record(shape string, c ApproxCounts) {
	t.mu.Lock()
	defer t.mu.Unlock()
	sc := t.shapes[shape]
	if sc == nil {
		sc = &ApproxCounts{}
		t.shapes[shape] = sc
	}
	sc.add(c)
}

// Shape returns the accumulated counts for one scenario shape.
func (t *ApproxTally) Shape(shape string) ApproxCounts {
	t.mu.Lock()
	defer t.mu.Unlock()
	if c := t.shapes[shape]; c != nil {
		return *c
	}
	return ApproxCounts{}
}

// Total returns the counts summed over all shapes.
func (t *ApproxTally) Total() ApproxCounts {
	t.mu.Lock()
	defer t.mu.Unlock()
	var total ApproxCounts
	for _, c := range t.shapes {
		total.add(*c)
	}
	return total
}

// OutOfBandErrorRate is the observed error rate over decisions outside the
// ±ε band — the quantity the ε–δ contract bounds by ApproxDelta. It is 0
// when no out-of-band decision was recorded.
func (t *ApproxTally) OutOfBandErrorRate() float64 {
	total := t.Total()
	out := total.Decisions - total.InBand
	if out <= 0 {
		return 0
	}
	return float64(total.OutFN) / float64(out)
}

// Summary renders the per-shape confusion table plus the aggregate line.
func (t *ApproxTally) Summary() string {
	t.mu.Lock()
	names := make([]string, 0, len(t.shapes))
	for shape := range t.shapes {
		names = append(names, shape)
	}
	t.mu.Unlock()
	sort.Strings(names)

	var b strings.Builder
	fmt.Fprintf(&b, "decide-approx sweep (eps=%g delta=%g budget=%d):\n", ApproxEps, ApproxDelta, ApproxBudget)
	fmt.Fprintf(&b, "  %-16s %5s %5s %5s %5s %7s %6s %9s %9s\n",
		"shape", "TP", "FP", "TN", "FN", "in-band", "escal", "samples", "decisions")
	for _, shape := range names {
		c := t.Shape(shape)
		fmt.Fprintf(&b, "  %-16s %5d %5d %5d %5d %7d %6d %9d %9d\n",
			shape, c.TP, c.FP, c.TN, c.FN, c.InBand, c.Escalated, c.Samples, c.Decisions)
	}
	total := t.Total()
	fmt.Fprintf(&b, "  %-16s %5d %5d %5d %5d %7d %6d %9d %9d\n",
		"total", total.TP, total.FP, total.TN, total.FN, total.InBand, total.Escalated, total.Samples, total.Decisions)
	fmt.Fprintf(&b, "  out-of-band error rate %.4f (contract: <= %g)", t.OutOfBandErrorRate(), ApproxDelta)
	return b.String()
}

// Mismatch describes one divergence between a production execution path and
// the oracle (or between two production paths).
type Mismatch struct {
	Scenario *gen.Scenario
	// Path names the execution path that disagreed: "naive", "engine",
	// "stream", "stream-rerun", "stream-parallel", "findrules-parallel",
	// "decide", "engine-decide", "decide-first", "decide-first-parallel",
	// "decide-approx", "witness".
	Path string
	// Detail is a human-readable description of the divergence.
	Detail string
}

// Error renders the mismatch as a one-line summary; the full repro comes
// from MarshalScenario.
func (m *Mismatch) Error() string {
	return fmt.Sprintf("diff: %s/%d: path %q disagrees with the oracle: %s",
		m.Scenario.Shape, m.Scenario.Seed, m.Path, m.Detail)
}

// admitted applies the scenario's strict thresholds to one oracle answer,
// spelled out here rather than through core.Thresholds.Admits so the
// expected set is derived without production code.
func admitted(th core.Thresholds, a oracle.Answer) bool {
	if th.CheckSup && !a.Sup.Greater(th.Sup) {
		return false
	}
	if th.CheckCnf && !a.Cnf.Greater(th.Cnf) {
		return false
	}
	if th.CheckCvr && !a.Cvr.Greater(th.Cvr) {
		return false
	}
	return true
}

// answerKey is the order-insensitive identity of one answer: rule text plus
// the three exact index values.
func answerKey(rule string, sup, cnf, cvr rat.Rat) string {
	return fmt.Sprintf("%s | sup=%s cnf=%s cvr=%s", rule, sup, cnf, cvr)
}

// answerSet folds answers into a multiset of answer keys.
func answerSet(keys []string) map[string]int {
	m := make(map[string]int, len(keys))
	for _, k := range keys {
		m[k]++
	}
	return m
}

// diffSets renders the difference between two answer multisets, or "" when
// they are equal.
func diffSets(got, want map[string]int) string {
	var missing, extra []string
	for k, n := range want {
		if got[k] < n {
			missing = append(missing, k)
		}
	}
	for k, n := range got {
		if want[k] < n {
			extra = append(extra, k)
		}
	}
	if len(missing) == 0 && len(extra) == 0 {
		return ""
	}
	sort.Strings(missing)
	sort.Strings(extra)
	var b strings.Builder
	if len(missing) > 0 {
		fmt.Fprintf(&b, "missing %d answer(s):\n  %s", len(missing), strings.Join(missing, "\n  "))
	}
	if len(extra) > 0 {
		if b.Len() > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "extra %d answer(s):\n  %s", len(extra), strings.Join(extra, "\n  "))
	}
	return b.String()
}

// coreKeys projects core answers onto answer keys.
func coreKeys(as []core.Answer) []string {
	out := make([]string, len(as))
	for i, a := range as {
		out[i] = answerKey(a.Rule.String(), a.Sup, a.Cnf, a.Cvr)
	}
	return out
}

// Run executes scenario s on every path and returns the first mismatch
// found, or nil when all paths agree with the oracle exactly. Errors are
// infrastructure failures (invalid scenario), not divergences.
func Run(s *gen.Scenario) (*Mismatch, error) {
	return RunTally(s, nil)
}

// RunTally is Run additionally recording the approximate decider's
// oracle-derived confusion counts into tally (when non-nil). A nil tally
// tightens the decide-approx check to exact agreement: without the sweep's
// δ accounting, any disagreement is reported as a mismatch.
func RunTally(s *gen.Scenario, tally *ApproxTally) (*Mismatch, error) {
	ctx := context.Background()

	// Ground truth: one exhaustive oracle pass yields both the admissible
	// answer set and the per-index maxima the decision bounds come from.
	all, err := oracle.AllRules(s.DB, s.MQ, s.Type)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	var wantKeys []string
	maxes := map[core.Index]rat.Rat{core.Sup: rat.Zero, core.Cnf: rat.Zero, core.Cvr: rat.Zero}
	for _, a := range all {
		maxes[core.Sup] = rat.Max(maxes[core.Sup], a.Sup)
		maxes[core.Cnf] = rat.Max(maxes[core.Cnf], a.Cnf)
		maxes[core.Cvr] = rat.Max(maxes[core.Cvr], a.Cvr)
		if admitted(s.Th, a) {
			wantKeys = append(wantKeys, answerKey(a.Rule.String(), a.Sup, a.Cnf, a.Cvr))
		}
	}
	wantSet := answerSet(wantKeys)

	// Path 1: naive enumerator.
	naive, err := core.NaiveAnswers(s.DB, s.MQ, s.Type, s.Th)
	if err != nil {
		return nil, fmt.Errorf("naive: %w", err)
	}
	if d := diffSets(answerSet(coreKeys(naive)), wantSet); d != "" {
		return &Mismatch{Scenario: s, Path: "naive", Detail: d}, nil
	}

	// Path 2: findRules engine (one-shot), running the cost-based planner
	// over the engine's cardinality statistics.
	opt := engine.Options{Type: s.Type, Thresholds: s.Th}
	eng := engine.NewEngine(s.DB)
	prep, err := eng.Prepare(s.MQ, opt)
	if err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	full, err := prep.FindRules(ctx)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	if d := diffSets(answerSet(coreKeys(full)), wantSet); d != "" {
		return &Mismatch{Scenario: s, Path: "engine", Detail: d}, nil
	}

	// Path 3: Prepared.Stream, twice — the second execution rides the
	// cross-execution node-join cache the first one populated.
	for _, path := range []string{"stream", "stream-rerun"} {
		var streamed []core.Answer
		for a, serr := range prep.Stream(ctx) {
			if serr != nil {
				return nil, fmt.Errorf("%s: %w", path, serr)
			}
			streamed = append(streamed, a)
		}
		if d := diffSets(answerSet(coreKeys(streamed)), wantSet); d != "" {
			return &Mismatch{Scenario: s, Path: path, Detail: d}, nil
		}
	}

	// Path 4: parallel enumeration — Stream and FindRules on a Prepared
	// with a seeded worker count (2–5). The merged stream's order is
	// nondeterministic, so the comparison is the same order-insensitive
	// multiset every other path uses; FindRules sorts, and must agree too.
	rng := rand.New(rand.NewSource(s.Seed ^ 0x5eed))
	parWorkers := 2 + rng.Intn(4)
	prepPar, err := eng.Prepare(s.MQ, engine.Options{Type: s.Type, Thresholds: s.Th, Workers: parWorkers})
	if err != nil {
		return nil, fmt.Errorf("prepare-parallel: %w", err)
	}
	var parStreamed []core.Answer
	for a, serr := range prepPar.Stream(ctx) {
		if serr != nil {
			return nil, fmt.Errorf("stream-parallel: %w", serr)
		}
		parStreamed = append(parStreamed, a)
	}
	if d := diffSets(answerSet(coreKeys(parStreamed)), wantSet); d != "" {
		return &Mismatch{Scenario: s, Path: "stream-parallel",
			Detail: fmt.Sprintf("workers=%d: %s", parWorkers, d)}, nil
	}
	parFull, err := prepPar.FindRules(ctx)
	if err != nil {
		return nil, fmt.Errorf("findrules-parallel: %w", err)
	}
	if d := diffSets(answerSet(coreKeys(parFull)), wantSet); d != "" {
		return &Mismatch{Scenario: s, Path: "findrules-parallel",
			Detail: fmt.Sprintf("workers=%d: %s", parWorkers, d)}, nil
	}

	// Path 5: single-atom bodies on one Prepared, where the pair-count memo
	// serves the rerun and the decisions.
	single := singleBody(s)
	prepSingle, err := eng.Prepare(single.MQ, opt)
	if err != nil {
		return nil, fmt.Errorf("prepare-single-body: %w", err)
	}
	if m, err := checkSingleBody(ctx, single, s.DB, prepSingle, "single-body"); m != nil || err != nil {
		return m, err
	}

	// The approximate decider runs under the harness's fixed ε–δ contract,
	// seeded from the scenario so repros replay byte-identically.
	prepApprox, err := eng.Prepare(s.MQ, engine.Options{Type: s.Type, Thresholds: s.Th,
		Approx: engine.ApproxOptions{Epsilon: ApproxEps, Delta: ApproxDelta, MaxSamples: ApproxBudget, Seed: s.Seed}})
	if err != nil {
		return nil, fmt.Errorf("prepare-approx: %w", err)
	}

	// Decision problems: for every index, derive bounds that flip the
	// verdict — 0 (YES iff the max index is positive) and the exact max
	// (always NO under the strict comparison) — and check the naive
	// decider, the engine-backed decider and the first-witness paths
	// (sequential and with the seeded worker count) against the oracle's
	// verdict, plus every returned witness against the oracle's index
	// values.
	for _, ix := range core.AllIndices {
		maxV := maxes[ix]
		bounds := []rat.Rat{rat.Zero, maxV}
		if maxV.Greater(rat.Zero) {
			// A bound strictly inside (0, max) when one exists: max/2.
			bounds = append(bounds, rat.New(maxV.Num(), maxV.Den()*2))
		}
		for _, k := range bounds {
			wantYes := maxV.Greater(k)

			gotSeq, wit, err := core.Decide(s.DB, s.MQ, ix, k, s.Type)
			if err != nil {
				return nil, fmt.Errorf("decide: %w", err)
			}
			if gotSeq != wantYes {
				return &Mismatch{Scenario: s, Path: "decide",
					Detail: fmt.Sprintf("%s > %s: got %v, oracle max %s says %v", ix, k, gotSeq, maxV, wantYes)}, nil
			}
			if m := checkWitness(s, ix, k, wit, "decide"); m != nil {
				return m, nil
			}

			gotEng, witEng, err := eng.Decide(ctx, s.MQ, ix, k, s.Type)
			if err != nil {
				return nil, fmt.Errorf("engine-decide: %w", err)
			}
			if gotEng != wantYes {
				return &Mismatch{Scenario: s, Path: "engine-decide",
					Detail: fmt.Sprintf("%s > %s: got %v, oracle says %v", ix, k, gotEng, wantYes)}, nil
			}
			if m := checkWitness(s, ix, k, witEng, "engine-decide"); m != nil {
				return m, nil
			}

			// First-witness path on the SAME Prepared the enumeration paths
			// used: DecideFirst overrides thresholds per run, so this also
			// exercises enumeration/decision coexistence on one Prepared.
			gotFirst, witFirst, err := prep.DecideFirst(ctx, ix, k)
			if err != nil {
				return nil, fmt.Errorf("decide-first: %w", err)
			}
			if gotFirst != wantYes {
				return &Mismatch{Scenario: s, Path: "decide-first",
					Detail: fmt.Sprintf("%s > %s: got %v, oracle says %v", ix, k, gotFirst, wantYes)}, nil
			}
			if m := checkWitness(s, ix, k, witFirst, "decide-first"); m != nil {
				return m, nil
			}

			// Parallel first-witness path: the first decision node's
			// candidates partitioned across a seeded worker count. The
			// verdict must match; the witness only needs to be valid.
			gotPFirst, witPFirst, err := prepPar.DecideFirst(ctx, ix, k)
			if err != nil {
				return nil, fmt.Errorf("decide-first-parallel: %w", err)
			}
			if gotPFirst != wantYes {
				return &Mismatch{Scenario: s, Path: "decide-first-parallel",
					Detail: fmt.Sprintf("%s > %s (workers=%d): got %v, oracle says %v", ix, k, parWorkers, gotPFirst, wantYes)}, nil
			}
			if m := checkWitness(s, ix, k, witPFirst, "decide-first-parallel"); m != nil {
				return m, nil
			}

			// Approximate first-witness path under the ε–δ contract. A YES
			// is exactly confirmed inside the decider, so a false positive
			// is unconditionally a bug; a miss with the true max inside the
			// ±ε band means an escalation-to-exact went wrong, also
			// unconditionally a bug. Only an out-of-band miss is permitted —
			// with probability at most δ, which the tally accounts for
			// across the sweep (without a tally it too is a mismatch).
			gotApprox, witApprox, stApprox, err := prepApprox.DecideApproxStats(ctx, ix, k)
			if err != nil {
				return nil, fmt.Errorf("decide-approx: %w", err)
			}
			inBand := math.Abs(maxV.Float64()-k.Float64()) <= ApproxEps
			if tally != nil {
				var c ApproxCounts
				c.Decisions = 1
				c.Samples = stApprox.SamplesDrawn
				if stApprox.ApproxEscalated > 0 {
					c.Escalated = 1
				}
				if inBand {
					c.InBand = 1
				}
				switch {
				case wantYes && gotApprox:
					c.TP = 1
				case wantYes && !gotApprox:
					c.FN = 1
					if !inBand {
						c.OutFN = 1
					}
				case !wantYes && gotApprox:
					c.FP = 1
				default:
					c.TN = 1
				}
				tally.record(s.Shape, c)
			}
			if gotApprox != wantYes {
				switch {
				case gotApprox:
					return &Mismatch{Scenario: s, Path: "decide-approx",
						Detail: fmt.Sprintf("%s > %s: false positive — sampled accepts are exactly confirmed and may never be wrong (oracle max %s)", ix, k, maxV)}, nil
				case inBand:
					return &Mismatch{Scenario: s, Path: "decide-approx",
						Detail: fmt.Sprintf("%s > %s: in-band miss — the true max %s is within ±%g of the bound, so the decider must escalate to exact evaluation", ix, k, maxV, ApproxEps)}, nil
				case tally == nil:
					return &Mismatch{Scenario: s, Path: "decide-approx",
						Detail: fmt.Sprintf("%s > %s: out-of-band miss (oracle max %s); permitted at rate delta only under a sweep tally", ix, k, maxV)}, nil
				}
			}
			if m := checkWitness(s, ix, k, witApprox, "decide-approx"); m != nil {
				return m, nil
			}
		}
	}
	return nil, nil
}

// checkWitness verifies a decider's witness against the oracle: applying it
// to the metaquery must yield a rule whose index value genuinely exceeds k.
func checkWitness(s *gen.Scenario, ix core.Index, k rat.Rat, wit *core.Instantiation, path string) *Mismatch {
	return checkWitnessOn(s, s.DB, ix, k, wit, path)
}

// singleBody returns s with its metaquery cut to the head and the first
// body literal. Every body of that metaquery is one atom, whose join is the
// engine's shared atom table, so the evaluator's pair-count memo answers
// the head counts of every run after the first (and carries them across
// Apply): a path the scenarios' multi-atom bodies, joined into run-owned
// tables, never reach.
func singleBody(s *gen.Scenario) *gen.Scenario {
	c := *s
	c.MQ = &core.Metaquery{Head: s.MQ.Head, Body: s.MQ.Body[:1]}
	return &c
}

// checkSingleBody is the single-body leg of Run and RunDeltas: prep, a
// Prepared of s.MQ (a singleBody scenario) on the engine whose current
// database is db, must reproduce the oracle's answers over db twice — the
// rerun served by the pair-count memo — and decide cnf and cvr at the
// verdict-flipping bounds from the memo, with oracle-valid witnesses.
func checkSingleBody(ctx context.Context, s *gen.Scenario, db *relation.Database, prep *engine.Prepared, path string) (*Mismatch, error) {
	all, err := oracle.AllRules(db, s.MQ, s.Type)
	if err != nil {
		return nil, fmt.Errorf("%s oracle: %w", path, err)
	}
	var wantKeys []string
	maxes := map[core.Index]rat.Rat{core.Cnf: rat.Zero, core.Cvr: rat.Zero}
	for _, a := range all {
		maxes[core.Cnf] = rat.Max(maxes[core.Cnf], a.Cnf)
		maxes[core.Cvr] = rat.Max(maxes[core.Cvr], a.Cvr)
		if admitted(s.Th, a) {
			wantKeys = append(wantKeys, answerKey(a.Rule.String(), a.Sup, a.Cnf, a.Cvr))
		}
	}
	wantSet := answerSet(wantKeys)
	for _, p := range []string{path, path + "-rerun"} {
		got, err := prep.FindRules(ctx)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if d := diffSets(answerSet(coreKeys(got)), wantSet); d != "" {
			return &Mismatch{Scenario: s, Path: p, Detail: d}, nil
		}
	}
	for _, ix := range []core.Index{core.Cnf, core.Cvr} {
		maxV := maxes[ix]
		for _, k := range []rat.Rat{rat.Zero, rat.New(maxV.Num(), maxV.Den()*2), maxV} {
			gotYes, wit, err := prep.DecideFirst(ctx, ix, k)
			if err != nil {
				return nil, fmt.Errorf("%s-decide: %w", path, err)
			}
			if wantYes := maxV.Greater(k); gotYes != wantYes {
				return &Mismatch{Scenario: s, Path: path + "-decide",
					Detail: fmt.Sprintf("%s > %s: got %v, oracle max %s says %v", ix, k, gotYes, maxV, wantYes)}, nil
			}
			if m := checkWitnessOn(s, db, ix, k, wit, path+"-decide"); m != nil {
				return m, nil
			}
		}
	}
	return nil, nil
}
