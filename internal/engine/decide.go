package engine

import (
	"context"
	"sort"
	"sync"

	"github.com/mqgo/metaquery/internal/approx"
	"github.com/mqgo/metaquery/internal/core"
	"github.com/mqgo/metaquery/internal/hypertree"
	"github.com/mqgo/metaquery/internal/rat"
	"github.com/mqgo/metaquery/internal/relation"
	"github.com/mqgo/metaquery/internal/stats"
)

// DecideFirst solves the decision problem ⟨DB, MQ, ix, k, T⟩ of Section
// 3.2 on the prepared metaquery: is there a type-T instantiation σ with
// ix(σ(MQ)) > k? It returns a witness instantiation on YES.
//
// Unlike answering through FindRules with Limit 1 (the previous decision
// idiom), DecideFirst runs the shared body-search iterator in a dedicated
// first-witness mode: only the queried index is evaluated (never all
// three), the body search visits decomposition nodes smallest estimated
// table first so hopeless branches die early, and on support decisions —
// where the index does not depend on the head at all — head enumeration is
// skipped entirely: the first body whose support exceeds k is completed
// with any agreeing head assignment. The search stops at the first witness,
// so a YES verdict pays for the explored prefix only; a NO verdict pays
// for the (pruned) body space without ever materializing body joins the
// queried index does not need.
//
// The thresholds and limit the Prepared was built with are ignored for the
// decision run; its type, decomposition and caches are shared. A Prepared
// can serve enumeration and decision runs concurrently.
func (p *Prepared) DecideFirst(ctx context.Context, ix core.Index, k rat.Rat) (bool, *core.Instantiation, error) {
	yes, wit, _, err := p.DecideFirstStats(ctx, ix, k)
	return yes, wit, err
}

// DecideFirstStats is DecideFirst additionally returning the run's search
// counters, so the cost of YES and NO verdicts can be observed (and
// benchmarked) separately. It runs the engine's one decider with the exact
// fraction test (DecideApproxStats runs it with the sampled one).
//
// With Options.Workers > 1 the decision runs on the engine's one worker
// pool (parallel.go), the same sharded driver the parallel enumeration
// uses: the first decision node's candidate atoms are handed out as chunks
// of the selectivity-ordered list, each worker runs its own decider, and
// the first witness recorded stops the other workers. The verdict is
// identical to the sequential run (the chunks cover the candidate space
// exactly); the witness may differ when several exist, and the returned
// counters are the sums over all workers.
func (p *Prepared) DecideFirstStats(ctx context.Context, ix core.Index, k rat.Rat) (bool, *core.Instantiation, *Stats, error) {
	return p.decide(ctx, ix, k, false)
}

// decide is the driver behind DecideFirstStats and DecideApproxStats: one
// first-witness run of the body search in the decision visit order, under
// the root span "decide", or "decide-approx" when sampled selects the
// sampled fraction test. Exact decisions shard across Options.Workers > 1;
// sampled ones run sequentially, because their sampler seeds follow the
// walk order (decider.nextSeed), which a sharded run would not replay.
func (p *Prepared) decide(ctx context.Context, ix core.Index, k rat.Rat, sampled bool) (bool, *core.Instantiation, *Stats, error) {
	opt := p.opt
	opt.Thresholds = core.SingleIndex(ix, k)
	opt.Limit = 0 // unused here: the decision run terminates via errFound
	ep := p.tracedEpoch(resolveTracer(ctx, opt))
	order := p.decideOrder(ep)
	root := "decide"
	if sampled {
		root = "decide-approx"
	} else if opt.Workers > 1 {
		var (
			mu      sync.Mutex
			witness *core.Instantiation
		)
		st := &Stats{}
		err := p.shard(ctx, ep, opt, order, "decide-parallel", st, func(r *run) {
			d := newDecider(r, ix, k, false)
			r.onBody = func(b *body) error {
				err := d.onBody(b)
				if err == errFound {
					mu.Lock()
					if witness == nil {
						witness = d.witness
					}
					mu.Unlock()
				}
				return err
			}
		})
		if err != errNoShard {
			// A witness is definitive even when the search was cut short.
			if witness != nil {
				st.Answers = 1
				return true, witness, st, nil
			}
			return false, nil, st, err
		}
		// No partitionable scheme: run sequentially.
	}

	r := p.newRunEp(ctx, opt, ep)
	defer r.release()
	r.order = order
	r.beginRoot(root)
	defer r.endRoot()
	d := newDecider(r, ix, k, sampled)
	r.onBody = d.onBody
	err := r.forEachBody()
	if err != nil && err != errFound {
		// The counters are fully populated up to the abort point.
		return false, nil, r.stats, err
	}
	if d.witness != nil {
		r.stats.Answers = 1
	}
	return d.witness != nil, d.witness, r.stats, nil
}

// decider is the first-witness consumer of the body-search iterator, the
// one decider behind DecideFirst and DecideApprox. The two differ only in
// the test deciding whether one fraction |t ⋉ u| / |t| exceeds k: the
// exact test counts it (KeyCounts.PairCounts for heads, SemijoinCounts for
// support); the sampled test (decide_approx.go) estimates it from uniform
// row samples, probed through a KeyCounts index, under the Options.Approx
// (ε, δ) contract.
type decider struct {
	run     *run
	ix      core.Index
	k       rat.Rat
	witness *core.Instantiation

	// sampled selects the sampled fraction test; the fields below serve it
	// only. kf is k as a float, par the normalized (ε, δ, budget) triple,
	// and seedBase/seedCtr the walk-order sampler seeds (nextSeed).
	sampled  bool
	kf       float64
	par      approx.Params
	seedBase uint64
	seedCtr  uint64

	// Reused per-body stratification buffers of the sampled test.
	raS  []*relation.Table
	uS   []*relation.Table
	estS []float64
}

// newDecider returns the decider for one run, with the sampled fraction
// test when sampled (configured from the run's Options.Approx) and the
// exact one otherwise.
func newDecider(r *run, ix core.Index, k rat.Rat, sampled bool) *decider {
	d := &decider{run: r, ix: ix, k: k, sampled: sampled}
	if sampled {
		d.kf = k.Float64()
		d.par = approxParams(r.opt.Approx)
		d.seedBase = approxSeedBase(r.opt.Approx.Seed, ix, k)
	}
	return d
}

// onBody checks one complete body instantiation for a witness and unwinds
// the search with errFound as soon as it finds one. Support reads the
// reduced node tables directly (no body join); cnf and cvr walk the heads
// agreeing with the body, testing each against the body join.
func (d *decider) onBody(b *body) error {
	r := d.run
	if d.ix != core.Sup {
		return r.forEachHead(b, d.headExceeds, d.found)
	}
	// Support is head-independent: the body alone decides, and any
	// agreeing head completes the witness.
	exceeds, err := d.supportExceeds(b)
	if err != nil {
		return err
	}
	if !exceeds {
		r.stats.BodiesPrunedSupport++
		return nil
	}
	// No agreeing head (e.g. the head's predicate variable is pinned to a
	// relation with no candidate atoms) leaves err nil: keep searching.
	err = r.completeHead(b, d.found)
	if err == errFound {
		r.stats.HeadsSkipped++
	}
	return err
}

// found records a witness and unwinds the search.
func (d *decider) found(full *core.Instantiation) error {
	d.witness = full
	return errFound
}

// headExceeds is the head test of the decider's walk: does the queried
// head-dependent index of head table h against body join b exceed k? The
// exact test takes both counts from one KeyCounts.PairCounts pass, which
// indexes b at most once for all its heads.
func (d *decider) headExceeds(h, b *relation.Table) (bool, error) {
	if d.sampled {
		if d.ix == core.Cnf {
			// cnf = |b ⋉ h| / |b|: sample body-join rows, probe the head.
			return d.fractionExceeds(b, h, d.par.MaxSamples)
		}
		// cvr = |h ⋉ b| / |h|: sample head rows, probe the body join.
		return d.fractionExceeds(h, b, d.par.MaxSamples)
	}
	r := d.run
	hb, bh := r.keyIdx.PairCounts(h, b, r.sc)
	if d.ix == core.Cvr {
		return fraction(hb, h.Len()).Greater(d.k), nil
	}
	return fraction(bh, b.Len()).Greater(d.k), nil
}

// supportExceeds decides sup(σb(body)) > k from the reduced node tables:
// support is a maximum, so the body qualifies as soon as one body atom's
// fraction exceeds k.
func (d *decider) supportExceeds(b *body) (bool, error) {
	if d.sampled {
		return d.sampledSupportExceeds(b)
	}
	r := d.run
	exceeds := false
	err := r.forEachBodyAtom(b.sigma, b.s, func(_ relation.Atom, ra, u *relation.Table) bool {
		exceeds = r.supportFraction(ra, u).Greater(d.k)
		return exceeds
	})
	return exceeds, err
}

// decideOrder returns the node visit order used by decision runs: a valid
// bottom-up (children before parents) order in which sibling subtrees are
// visited smallest estimated node output first, so the branches most
// likely to empty out — and prune the candidate space — are tried
// earliest. The estimate for a node is the estimated output size of its
// λ-join under each scheme's cheapest candidate (nodeEstimate), derived
// from the engine's cardinality statistics; a subtree is ranked by the
// smallest estimate it contains. The order depends only on the database
// version and the preparation, so it is computed once per epoch and
// shared.
func (p *Prepared) decideOrder(ep *prepEpoch) []*hypertree.Node {
	ep.decideOrderOnce.Do(func() {
		est := p.nodeEstimates(ep)
		// Subtree rank: the minimum estimate in the subtree.
		var rank func(n *hypertree.Node) float64
		ranks := make(map[int]float64, len(p.order))
		rank = func(n *hypertree.Node) float64 {
			best := est[n.ID]
			for _, c := range n.Children {
				if r := rank(c); r < best {
					best = r
				}
			}
			ranks[n.ID] = best
			return best
		}
		rank(p.decomp.Root)

		out := make([]*hypertree.Node, 0, len(p.order))
		var walk func(n *hypertree.Node)
		walk = func(n *hypertree.Node) {
			kids := append([]*hypertree.Node(nil), n.Children...)
			sort.Slice(kids, func(i, j int) bool {
				if ranks[kids[i].ID] != ranks[kids[j].ID] {
					return ranks[kids[i].ID] < ranks[kids[j].ID]
				}
				return kids[i].ID < kids[j].ID
			})
			for _, c := range kids {
				walk(c)
			}
			out = append(out, n)
		}
		walk(p.decomp.Root)
		ep.decideOrderNodes = out
	})
	return ep.decideOrderNodes
}

// nodeEstimate estimates the output size of one decomposition node's
// λ-join: each scheme contributes the estimate of its cheapest candidate
// atom — the head of its selectivity-ordered list (an ordinary atom
// contributes its own estimate) — and the per-scheme estimates compose
// through the join-size formula, all priced from the snapshot statistics.
func (p *Prepared) nodeEstimate(ep *prepEpoch, n *hypertree.Node) float64 {
	acc := stats.Est{}
	first := true
	for _, id := range p.nodeSchemes[n.ID] {
		cands := p.orderedCandidates(ep)[id]
		if len(cands) == 0 {
			return 0 // no candidates: the node can never instantiate
		}
		best := ep.snap.ev.AtomEst(cands[0])
		if first {
			acc, first = best, false
		} else {
			acc = stats.JoinEst(acc, best)
		}
	}
	if first {
		return 0
	}
	return acc.Rows
}
