package engine

import (
	"github.com/mqgo/metaquery/internal/core"
	"github.com/mqgo/metaquery/internal/hypertree"
	"github.com/mqgo/metaquery/internal/rat"
	"github.com/mqgo/metaquery/internal/relation"
	"github.com/mqgo/metaquery/internal/stats"
)

// forEachBodyFraction computes, for each distinct body scheme, the fraction
//
//	{a} ↑ b(r)  =  |r_a ⋉ π_varo(a)(s[p])| / |r_a|
//
// of tuples of the instantiated atom a participating in the reduced body
// (p is a's cover node), calling f with each non-zero value. f returns
// true to stop the iteration early. It is the single loop behind the exact
// support computation, the enoughSupport pruning check, and the
// first-witness support decision.
//
// The node table s[p] is read directly, without the projection: a
// semijoin looks only at the shared columns, which are exactly a's
// variables (the cover node has them all in χ(p)), so r_a ⋉ s[p] has the
// same count as r_a ⋉ π_varo(a)(s[p]).
func (r *run) forEachBodyFraction(sigma *core.Instantiation, s map[int]*relation.Table, f func(rat.Rat) bool) error {
	for id, bs := range r.p.schemes {
		atom, err := r.instAtom(bs.scheme, sigma)
		if err != nil {
			return err
		}
		ra, err := r.ep.snap.ev.TableFor(atom)
		if err != nil {
			return err
		}
		if ra.Len() == 0 {
			continue
		}
		num := ra.Len()
		if node := r.p.decomp.CoverNode[id]; !r.p.soleAtomNode(node, id) {
			num = ra.SemijoinCountS(s[node.ID], r.sc)
		}
		if num == 0 {
			continue
		}
		if f(rat.New(int64(num), int64(ra.Len()))) {
			return nil
		}
	}
	return nil
}

// soleAtomNode reports whether node is the whole decomposition and joins
// scheme id alone: no parent, no children, λ = {id}. Its reduced table is
// then the unreduced π_χ(r_a) of that scheme's atom a, so a's support
// fraction is exactly 1 (when r_a is non-empty) and needs no count.
func (p *Prepared) soleAtomNode(node *hypertree.Node, id int) bool {
	l := p.nodeSchemes[node.ID]
	return node.Parent == nil && len(node.Children) == 0 && len(l) == 1 && l[0] == id
}

// computeSupport evaluates sup(σ(body)) exactly from the reduced node
// tables: the maximum body-atom fraction (the enoughSupport computation of
// Figure 4, extended to return the exact maximum rather than only the
// threshold bit).
func (r *run) computeSupport(sigma *core.Instantiation, s map[int]*relation.Table) (rat.Rat, error) {
	best := rat.Zero
	err := r.forEachBodyFraction(sigma, s, func(v rat.Rat) bool {
		best = rat.Max(best, v)
		return false
	})
	return best, err
}

// supportExceeds is the early-exit variant used for pruning and for
// support decisions: it reports true as soon as one body atom's fraction
// exceeds k (support is a maximum).
func (r *run) supportExceeds(sigma *core.Instantiation, s map[int]*relation.Table, k rat.Rat) (bool, error) {
	exceeds := false
	err := r.forEachBodyFraction(sigma, s, func(v rat.Rat) bool {
		exceeds = v.Greater(k)
		return exceeds
	})
	return exceeds, err
}

// bodyJoin materializes b = J(σ(body)) over att(body), including type-2
// padding variables (they contribute to the confidence denominator).
// Atom tables are semijoin-reduced against their cover nodes first, which
// is what makes the final join cheap after the full-reducer passes.
//
// With three or more atoms the join order is cost-based: the reduced
// tables' actual cardinalities combine with the atoms' estimated
// per-column distinct counts (clamped to the reduced sizes by the order
// search) in stats.Order, so skewed instantiations join low-fanout tables
// first. Shorter bodies take the size-sorted greedy join.
// The returned owned flag reports whether the result is a run-owned
// intermediate the caller must hand back through r.sc.Release when done —
// false exactly when the join degenerated to a shared cached table.
func (r *run) bodyJoin(sigma *core.Instantiation, s map[int]*relation.Table) (*relation.Table, bool, error) {
	costBased := len(r.p.schemes) > 2
	tables := r.bjTables[:0]
	owns := r.bjOwn[:0]
	atoms := r.bjAtoms[:0]
	defer func() {
		for i := range tables {
			tables[i] = nil
		}
		r.bjTables, r.bjOwn, r.bjAtoms = tables[:0], owns[:0], atoms[:0]
	}()
	for id, bs := range r.p.schemes {
		atom, err := r.instAtom(bs.scheme, sigma)
		if err != nil {
			return nil, false, err
		}
		ta, err := r.ep.snap.ev.TableFor(atom)
		if err != nil {
			return nil, false, err
		}
		own := false
		node := r.p.decomp.CoverNode[id]
		// Semijoin reduction never changes the join: s[p] contains the
		// projection of the full body join onto χ(p), so every row the
		// semijoin would drop joins with nothing. Skipping it is therefore
		// always sound, and it is skipped where it rarely pays: a childless
		// cover node with a single λ atom, whose table is one atom's
		// projection reduced only by its parent. ta then stays the shared
		// cached table with no per-body copy — the single-atom-body decision
		// steady state. The support elision (soleAtomNode) needs the
		// stronger no-parent condition, because there the count itself is
		// the result.
		if len(node.Children) > 0 || len(r.p.nodeSchemes[node.ID]) > 1 {
			ta = ta.SemijoinS(s[node.ID], r.sc)
			own = true
		}
		tables = append(tables, ta)
		owns = append(owns, own)
		if costBased {
			atoms = append(atoms, atom)
		}
	}
	if len(tables) == 0 {
		return relation.Unit(), false, nil
	}
	var b *relation.Table
	if costBased {
		in := r.bjEsts[:0]
		for i, ta := range tables {
			in = append(in, r.ep.snap.ev.AtomEst(atoms[i]).WithRows(float64(ta.Len())))
		}
		r.bjEsts = in[:0]
		b = relation.JoinTablesOrdered(tables, stats.Order(in))
	} else {
		// Size-aware greedy ordering, shared with JoinAtoms and the JoinPlan
		// skew fallback.
		b = relation.JoinTablesGreedy(tables)
	}
	// Semijoined inputs are run-owned and recycled now; inputs whose reducer
	// pass was skipped stay shared. The returned flag follows b: a fresh
	// join output is owned, a directly returned input keeps its own status.
	bOwned := true
	for i, ta := range tables {
		if ta == b {
			bOwned = owns[i]
		} else if owns[i] {
			r.sc.Release(ta)
		}
	}
	return b, bOwned, nil
}

// fraction returns num/den, or zero when num is zero (den may then be
// zero too).
func fraction(num, den int) rat.Rat {
	if num == 0 {
		return rat.Zero
	}
	return rat.New(int64(num), int64(den))
}

// headAgrees reports whether head candidate ha agrees with σb in the sense
// of Definition 4.13: same pattern -> same atom, same predicate variable ->
// same relation. Ordinary-atom heads always agree.
func (r *run) headAgrees(sigma *core.Instantiation, ha relation.Atom) bool {
	head := r.p.mq.Head
	if !head.PredVar {
		return true
	}
	if prev, ok := sigma.AtomFor(head); ok && !prev.Equal(ha) {
		return false
	}
	if rel, ok := sigma.RelationOf(head.Pred); ok && rel != ha.Pred {
		return false
	}
	return true
}

// findHeads is Figure 4's findHeads: with the body σb fixed and reduced,
// check support, materialize b = J(σb(body)), and search head
// instantiations agreeing with σb, filtering on cover and confidence. Both
// head-dependent indices of a candidate come from one counting pass
// (KeyCounts.PairCounts, using b ⋉ (h ⋉ b) = b ⋉ h), so the figure's
// h' = h ⋉ b is never materialized, and b is indexed at most once for all
// its heads. It is the enumeration consumer of the body-search iterator
// (search.go).
func (r *run) findHeads(bd *body) error {
	sigma, s := bd.sigma, bd.s
	th := r.opt.Thresholds

	if th.CheckSup {
		ok, err := r.supportExceeds(sigma, s, th.Sup)
		if err != nil {
			return err
		}
		if !ok {
			r.stats.BodiesPrunedSupport++
			return nil
		}
	}
	sup, err := r.computeSupport(sigma, s)
	if err != nil {
		return err
	}
	if th.CheckSup && !sup.Greater(th.Sup) {
		r.stats.BodiesPrunedSupport++
		return nil
	}

	b, bOwned, err := r.bodyJoin(sigma, s)
	if err != nil {
		return err
	}
	r.headIdx.Reset(r.sc)

	head := r.p.mq.Head
	for _, ha := range r.ep.snap.cands.Candidates(head, r.opt.Type, r.p.headPatternIdx) {
		if err := r.ctx.Err(); err != nil {
			return err
		}
		if !r.headAgrees(sigma, ha) {
			continue
		}
		r.stats.HeadsTried++

		h, err := r.ep.snap.ev.TableFor(ha)
		if err != nil {
			return err
		}
		hb, bh := r.headIdx.PairCounts(h, b, r.sc)
		cvr := fraction(hb, h.Len())
		if th.CheckCvr && !cvr.Greater(th.Cvr) {
			continue
		}
		cnf := fraction(bh, b.Len())
		if th.CheckCnf && !cnf.Greater(th.Cnf) {
			continue
		}

		full := sigma.Clone()
		if head.PredVar {
			if err := full.Assign(head, ha); err != nil {
				continue // cannot agree (e.g. conflicting relation)
			}
		}
		rule, err := full.Apply(r.p.mq)
		if err != nil {
			return err
		}
		// Count before emitting: an answer the consumer stops on was still
		// delivered, and must show in Stats.Answers.
		r.stats.Answers++
		err = r.emit(core.Answer{
			Inst: full,
			Rule: rule,
			Sup:  sup,
			Cnf:  cnf,
			Cvr:  cvr,
		})
		if err == nil && r.opt.Limit > 0 && r.stats.Answers >= r.opt.Limit {
			err = errLimit
		}
		if err != nil {
			if bOwned {
				r.sc.Release(b)
			}
			return err
		}
	}
	if bOwned {
		r.sc.Release(b)
	}
	return nil
}
