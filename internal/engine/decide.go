package engine

import (
	"context"
	"sort"
	"sync"

	"github.com/mqgo/metaquery/internal/core"
	"github.com/mqgo/metaquery/internal/hypertree"
	"github.com/mqgo/metaquery/internal/rat"
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
// benchmarked) separately.
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
	opt := p.opt
	opt.Thresholds = core.SingleIndex(ix, k)
	opt.Limit = 0 // unused here: the decision run terminates via errFound
	ep := p.tracedEpoch(resolveTracer(ctx, opt))
	order := p.decideOrder(ep)
	if opt.Workers > 1 {
		var (
			mu      sync.Mutex
			witness *core.Instantiation
		)
		st := &Stats{}
		err := p.shard(ctx, ep, opt, order, "decide-parallel", st, func(r *run) {
			d := &decider{run: r, ix: ix, k: k}
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
	r.beginRoot("decide")
	defer r.endRoot()
	d := &decider{run: r, ix: ix, k: k}
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

// decider is the first-witness consumer of the body-search iterator.
type decider struct {
	run     *run
	ix      core.Index
	k       rat.Rat
	witness *core.Instantiation
}

// onBody checks one complete body instantiation for a witness and unwinds
// the search with errFound as soon as it finds one. Support reads the
// reduced node tables directly (no projection copy, no body join); cnf and
// cvr take both head-dependent counts from one counting pass per head,
// never materializing h' = h ⋉ b.
func (d *decider) onBody(b *body) error {
	r := d.run
	switch d.ix {
	case core.Sup:
		// Support is head-independent: the body alone decides, and the
		// reduced node tables answer the strict comparison without ever
		// materializing the body join.
		exceeds, err := r.supportExceeds(b.sigma, b.s, d.k)
		if err != nil {
			return err
		}
		if !exceeds {
			r.stats.BodiesPrunedSupport++
			return nil
		}
		wit, ok := r.completeHead(b.sigma)
		if !ok {
			// No head assignment agrees with this body (e.g. the head's
			// predicate variable is pinned to a relation with no candidate
			// atoms); keep searching.
			return nil
		}
		r.stats.HeadsSkipped++
		d.witness = wit
		return errFound
	default: // core.Cnf, core.Cvr
		return d.headSearch(b)
	}
}

// headSearch materializes the body join once and walks the head candidates
// agreeing with the body, stopping at the first candidate whose queried
// index exceeds k. Both head-dependent indices come from one
// KeyCounts.PairCounts pass, which indexes the body at most once for all
// its heads.
func (d *decider) headSearch(b *body) error {
	r := d.run
	bj, bjOwned, err := r.bodyJoin(b.sigma, b.s)
	if err != nil {
		return err
	}
	r.headIdx.Reset(r.sc)
	for _, ha := range r.ep.snap.cands.Candidates(r.p.mq.Head, r.opt.Type, r.p.headPatternIdx) {
		if err := r.ctx.Err(); err != nil {
			return err
		}
		if !r.headAgrees(b.sigma, ha) {
			continue
		}
		r.stats.HeadsTried++
		h, err := r.ep.snap.ev.TableFor(ha)
		if err != nil {
			return err
		}
		hb, bh := r.headIdx.PairCounts(h, bj, r.sc)
		v := fraction(bh, bj.Len()) // cnf = |b ⋉ h| / |b|
		if d.ix == core.Cvr {
			v = fraction(hb, h.Len()) // cvr = |h ⋉ b| / |h|
		}
		if !v.Greater(d.k) {
			continue
		}
		full := b.sigma.Clone()
		if r.p.mq.Head.PredVar {
			if err := full.Assign(r.p.mq.Head, ha); err != nil {
				continue // cannot agree (e.g. conflicting relation)
			}
		}
		d.witness = full
		if bjOwned {
			r.sc.Release(bj)
		}
		return errFound
	}
	if bjOwned {
		r.sc.Release(bj)
	}
	return nil
}

// completeHead extends a decided body instantiation with an agreeing head
// assignment — any one will do, since the queried index does not depend on
// the head. It reports false when no head candidate agrees.
func (r *run) completeHead(sigma *core.Instantiation) (*core.Instantiation, bool) {
	head := r.p.mq.Head
	if !head.PredVar {
		return sigma.Clone(), true
	}
	if _, ok := sigma.AtomFor(head); ok {
		// The head scheme is also a body scheme and is already assigned.
		return sigma.Clone(), true
	}
	for _, ha := range r.ep.snap.cands.Candidates(head, r.opt.Type, r.p.headPatternIdx) {
		if !r.headAgrees(sigma, ha) {
			continue
		}
		full := sigma.Clone()
		if err := full.Assign(head, ha); err != nil {
			continue
		}
		return full, true
	}
	return nil, false
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
// atom (an ordinary atom contributes its own estimate), and the per-scheme
// estimates compose through the join-size formula, all priced from the
// snapshot statistics.
func (p *Prepared) nodeEstimate(ep *prepEpoch, n *hypertree.Node) float64 {
	acc := stats.Est{}
	first := true
	for _, id := range p.nodeSchemes[n.ID] {
		bs := p.schemes[id]
		var best stats.Est
		if !bs.scheme.PredVar {
			best = ep.snap.ev.AtomEst(bs.scheme.Atom())
		} else {
			found := false
			for _, a := range ep.snap.cands.Candidates(bs.scheme, p.opt.Type, bs.patternIdx) {
				e := ep.snap.ev.AtomEst(a)
				if !found || e.Rows < best.Rows {
					best, found = e, true
				}
			}
			if !found {
				return 0 // no candidates: the node can never instantiate
			}
		}
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
