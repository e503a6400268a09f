package engine

import (
	"context"
	"sort"
	"sync"

	"github.com/mqgo/metaquery/internal/core"
	"github.com/mqgo/metaquery/internal/hypertree"
	"github.com/mqgo/metaquery/internal/obs"
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
// benchmarked) separately.
//
// With Options.Workers > 1 the first decomposition node's candidate atoms
// are handed out as chunks of the selectivity-ordered list through a shared
// atomic cursor (parallel.go); the workers share a first-witness
// cancellation, so the first worker to find a witness stops the others. The
// verdict is identical to the sequential run (the chunks cover the
// candidate space exactly); the witness may differ when several exist, and
// the returned counters are the sums over all workers.
func (p *Prepared) DecideFirstStats(ctx context.Context, ix core.Index, k rat.Rat) (bool, *core.Instantiation, *Stats, error) {
	if p.opt.Workers > 1 {
		if yes, wit, st, ok, err := p.decideFirstParallel(ctx, ix, k); ok {
			return yes, wit, st, err
		}
		// No partitionable scheme (or too few candidates): run sequential.
	}
	return p.decideFirstSeq(ctx, ix, k, nil, nil, -1)
}

// decideFirstSeq is one sequential first-witness run, optionally with a
// candidate restriction for a parallel worker's block. A non-nil ep pins
// the epoch (the parallel coordinator resolves one for all workers); nil
// resolves the current one. parent is the tracing parent span: -1 for a
// standalone run, the coordinator's span for a parallel worker chunk.
func (p *Prepared) decideFirstSeq(ctx context.Context, ix core.Index, k rat.Rat, restrict map[int][]relation.Atom, ep *prepEpoch, parent int) (bool, *core.Instantiation, *Stats, error) {
	opt := p.opt
	opt.Thresholds = core.SingleIndex(ix, k)
	opt.Limit = 0 // unused here: the decision run terminates via errFound
	if ep == nil {
		ep = p.tracedEpoch(resolveTracer(ctx, opt))
	}
	r := p.newRunEp(ctx, opt, ep)
	defer r.release()
	r.order = p.decideOrder(ep)
	r.restrict = restrict
	r.span = parent
	if restrict == nil {
		r.beginRoot("decide")
	} else {
		r.beginRoot("chunk")
	}
	defer r.endRoot()

	d := &decider{run: r, ix: ix, k: k}
	r.onBody = d.onBody
	err := r.forEachBody()
	if err != nil && err != errFound {
		// The counters are fully populated up to the abort point; return
		// them so cancelled parallel workers still contribute their work
		// to the merged totals.
		return false, nil, r.stats, err
	}
	if d.witness != nil {
		r.stats.Answers = 1
	}
	return d.witness != nil, d.witness, r.stats, nil
}

// decideFirstParallel shards the first decision node's candidates across
// p.opt.Workers goroutines via the shared chunk cursor. It reports ok=false
// when the search has no scheme worth partitioning (no pattern in the first
// node, or fewer than two candidates), in which case the caller runs
// sequentially.
func (p *Prepared) decideFirstParallel(ctx context.Context, ix core.Index, k rat.Rat) (bool, *core.Instantiation, *Stats, bool, error) {
	// One epoch for the whole sharded execution: the chunk partition and
	// every worker must see the same candidate lists and database version.
	tr := resolveTracer(ctx, p.opt)
	ep := p.tracedEpoch(tr)
	order := p.decideOrder(ep)
	schemeID, cands := p.partitionScheme(ep, order)
	if schemeID < 0 || len(cands) < 2 {
		return false, nil, nil, false, nil
	}
	workers := p.opt.Workers
	if workers > len(cands) {
		workers = len(cands)
	}
	root := tr.Begin(-1, "decide-parallel")
	defer func() { tr.End(root, obs.AInt("workers", workers), obs.AInt("candidates", len(cands))) }()

	if ctx == nil {
		ctx = context.Background()
	}
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu       sync.Mutex
		witness  *core.Instantiation
		firstErr error
		merged   Stats
		wg       sync.WaitGroup
	)
	cursor := newCandCursor(cands, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Claim chunks off the shared atomic cursor until a witness is
			// found somewhere or the candidates run out: a worker whose
			// chunks are cheap keeps pulling from the remainder instead of
			// idling while another holds an expensive static block.
			restrict := map[int][]relation.Atom{}
			for block := cursor.take(); block != nil; block = cursor.take() {
				if wctx.Err() != nil {
					return
				}
				restrict[schemeID] = block
				yes, wit, st, err := p.decideFirstSeq(wctx, ix, k, restrict, ep, root)
				mu.Lock()
				merged.merge(st)
				if err != nil {
					if firstErr == nil && wctx.Err() == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				if yes {
					if witness == nil {
						witness = wit
					}
					mu.Unlock()
					cancel() // first witness wins; stop the other workers
					return
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	merged.Width = p.decomp.Width
	merged.Nodes = len(p.order)
	if witness != nil {
		merged.Answers = 1
		return true, witness, &merged, true, nil
	}
	if firstErr != nil {
		return false, nil, &merged, true, firstErr
	}
	// No worker found a witness: if the surrounding context was cancelled
	// the exhaustion is not definitive, so surface its error — with the
	// merged counters, matching the sequential path's stats-on-abort
	// behavior.
	if err := ctx.Err(); err != nil {
		return false, nil, &merged, true, err
	}
	return false, nil, &merged, true, nil
}

// partitionScheme picks the scheme the parallel decision run partitions:
// the first pattern scheme of the first node in the decision visit order,
// with its (selectivity-ordered) candidate atoms. It returns -1 when the
// first node holds no pattern scheme.
func (p *Prepared) partitionScheme(ep *prepEpoch, order []*hypertree.Node) (int, []relation.Atom) {
	if len(order) == 0 {
		return -1, nil
	}
	for _, id := range p.nodeSchemes[order[0].ID] {
		bs := p.schemes[id]
		if !bs.scheme.PredVar {
			continue
		}
		if c, ok := p.orderedCandidates(ep)[id]; ok {
			return id, c
		}
		return id, ep.snap.cands.Candidates(bs.scheme, p.opt.Type, bs.patternIdx)
	}
	return -1, nil
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
		est := make(map[int]float64, len(p.order))
		for _, n := range p.order {
			est[n.ID] = p.nodeEstimate(ep, n)
		}
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
