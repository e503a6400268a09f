package engine

import (
	"github.com/mqgo/metaquery/internal/core"
	"github.com/mqgo/metaquery/internal/hypertree"
	"github.com/mqgo/metaquery/internal/rat"
	"github.com/mqgo/metaquery/internal/relation"
)

// forEachBodyAtom is the one loop behind every support fraction
//
//	{a} ↑ b(r)  =  |r_a ⋉ π_varo(a)(s[p])| / |r_a|
//
// of the reduced body (p is a's cover node): for each distinct body scheme
// with a non-empty table r_a it calls f with the instantiated atom a, r_a
// and the cover-node table u = s[p] — nil when p joins a alone
// (soleAtomNode), where the fraction is exactly 1. f returns true to stop
// the iteration early. It serves the exact support (computeSupport), the
// exact support decision and the sampled one's stratified budget.
//
// The node table s[p] is handed over without the projection: a semijoin
// looks only at the shared columns, which are exactly a's variables (the
// cover node has them all in χ(p)), so r_a ⋉ s[p] has the same count as
// r_a ⋉ π_varo(a)(s[p]).
func (r *run) forEachBodyAtom(sigma *core.Instantiation, s map[int]*relation.Table, f func(a relation.Atom, ra, u *relation.Table) bool) error {
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
		var u *relation.Table
		if node := r.p.decomp.CoverNode[id]; !r.p.soleAtomNode(node, id) {
			u = s[node.ID]
		}
		if f(atom, ra, u) {
			return nil
		}
	}
	return nil
}

// supportFraction counts one forEachBodyAtom fraction |r_a ⋉ u| / |r_a|
// exactly; a nil u is the sole-atom fraction 1.
func (r *run) supportFraction(ra, u *relation.Table) rat.Rat {
	num := ra.Len()
	if u != nil {
		num, _ = ra.SemijoinCounts(u, r.sc)
	}
	return fraction(num, ra.Len())
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
	err := r.forEachBodyAtom(sigma, s, func(_ relation.Atom, ra, u *relation.Table) bool {
		best = rat.Max(best, r.supportFraction(ra, u))
		return false
	})
	return best, err
}

// bodyJoin materializes b = J(σ(body)) over att(body), including type-2
// padding variables (they contribute to the confidence denominator).
// Atom tables are semijoin-reduced against their cover nodes first, which
// is what makes the final join cheap after the full-reducer passes; the
// reduced tables are then joined by the snapshot evaluator's JoinTables,
// which orders three or more of them cost-based from their actual
// cardinalities, so skewed instantiations join low-fanout tables first.
// The returned owned flag reports whether the result is a run-owned
// intermediate the caller must hand back through r.sc.Release when done —
// false exactly when the join degenerated to a shared cached table.
func (r *run) bodyJoin(sigma *core.Instantiation, s map[int]*relation.Table) (*relation.Table, bool, error) {
	tables := r.bjTables[:0]
	owns := r.bjOwn[:0]
	atoms := r.bjAtoms[:0]
	defer func() {
		clear(tables)
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
		atoms = append(atoms, atom)
	}
	if len(tables) == 0 {
		return relation.Unit(), false, nil
	}
	b := r.ep.snap.ev.JoinTables(atoms, tables)
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

// forEachHead is Figure 4's head loop over one reduced body bd, the only
// walk of the head candidates: every consumer that needs heads is a
// visitor of it. It polls the run's context per candidate and skips heads
// that do not agree with σb.
//
// With a non-nil test, it materializes the body join b = J(σb(body)) once,
// counts every agreeing candidate in HeadsTried and hands test the
// candidate's table h with b; each head test accepts extends σb into the
// full instantiation passed to accept. A nil test completes σb only —
// no body join, head table or HeadsTried — for decisions whose index does
// not depend on the head. An error from test or accept (a sentinel such as
// errFound included) ends the walk. The body join, when owned, is released
// on every exit.
func (r *run) forEachHead(bd *body, test func(h, b *relation.Table) (bool, error), accept func(*core.Instantiation) error) error {
	var b *relation.Table
	if test != nil {
		bj, owned, err := r.bodyJoin(bd.sigma, bd.s)
		if err != nil {
			return err
		}
		if owned {
			defer r.sc.Release(bj)
		}
		b = bj
		r.keyIdx.Reset(r.sc)
	}
	head := r.p.mq.Head
	for _, ha := range r.p.headCandidates(r.ep) {
		if err := r.ctx.Err(); err != nil {
			return err
		}
		if !r.headAgrees(bd.sigma, ha) {
			continue
		}
		if test != nil {
			r.stats.HeadsTried++
			h, err := r.ep.snap.ev.TableFor(ha)
			if err != nil {
				return err
			}
			ok, err := test(h, b)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
		}
		full := bd.sigma.Clone()
		if head.PredVar {
			if err := full.Assign(head, ha); err != nil {
				continue // cannot agree (e.g. conflicting relation)
			}
		}
		if err := accept(full); err != nil {
			return err
		}
	}
	return nil
}

// completeHead hands accept the decided body σb extended with an agreeing
// head assignment — any one will do, since the decided index does not
// depend on the head. It calls accept at most once and not at all when no
// head candidate agrees.
func (r *run) completeHead(bd *body, accept func(*core.Instantiation) error) error {
	head := r.p.mq.Head
	if _, ok := bd.sigma.AtomFor(head); ok || !head.PredVar {
		// Nothing to assign: an ordinary head, or a head scheme that is
		// also a body scheme.
		return accept(bd.sigma.Clone())
	}
	return r.forEachHead(bd, nil, accept)
}

// findHeads is Figure 4's findHeads: with the body σb fixed and reduced,
// check support, then visit the head instantiations agreeing with σb,
// filtering on cover and confidence. Both head-dependent indices of a
// candidate come from one counting pass (KeyCounts.PairCounts, using
// b ⋉ (h ⋉ b) = b ⋉ h), so the figure's h' = h ⋉ b is never
// materialized, and b is indexed at most once for all its heads. It is the
// enumeration consumer of the body-search iterator (search.go).
func (r *run) findHeads(bd *body) error {
	th := r.opt.Thresholds
	sup, err := r.computeSupport(bd.sigma, bd.s)
	if err != nil {
		return err
	}
	if th.CheckSup && !sup.Greater(th.Sup) {
		r.stats.BodiesPrunedSupport++
		return nil
	}
	var cnf, cvr rat.Rat
	return r.forEachHead(bd, func(h, b *relation.Table) (bool, error) {
		hb, bh := r.keyIdx.PairCounts(h, b, r.sc)
		cvr, cnf = fraction(hb, h.Len()), fraction(bh, b.Len())
		return (!th.CheckCvr || cvr.Greater(th.Cvr)) && (!th.CheckCnf || cnf.Greater(th.Cnf)), nil
	}, func(full *core.Instantiation) error {
		rule, err := full.Apply(r.p.mq)
		if err != nil {
			return err
		}
		// Count before emitting: an answer the consumer stops on was still
		// delivered, and must show in Stats.Answers.
		r.stats.Answers++
		err = r.emit(core.Answer{Inst: full, Rule: rule, Sup: sup, Cnf: cnf, Cvr: cvr})
		if err == nil && r.opt.Limit > 0 && r.stats.Answers >= r.opt.Limit {
			err = errLimit
		}
		return err
	})
}
