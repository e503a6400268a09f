package engine

import (
	"github.com/mqgo/metaquery/internal/core"
	"github.com/mqgo/metaquery/internal/hypertree"
	"github.com/mqgo/metaquery/internal/rat"
	"github.com/mqgo/metaquery/internal/relation"
)

// SupportOfRule computes sup(r) by the algorithm of Theorem 4.12: it
// decomposes the body into a complete hypertree decomposition of width c,
// materializes each node as the projection of its λ-join onto χ, runs the
// two-half semijoin full reducer over the (acyclic) node tables, and
// returns max_i d'_i/d_i where d'_i is the reduced size of body relation i.
// The running time is O(d^c log d) in the size d of the largest relation.
//
// It returns the same value as core.Support (differentially tested) without
// ever materializing the full body join.
func SupportOfRule(db *relation.Database, r core.Rule) (rat.Rat, error) {
	body := r.BodyAtoms()
	atoms := make([]hypertree.AtomSchema, len(body))
	for i, a := range body {
		atoms[i] = hypertree.AtomSchema{ID: i, Vars: a.Vars()}
	}
	decomp := hypertree.Decompose(atoms)
	order := decomp.BottomUpOrder()

	// Node tables: π_χ(J(λ)). One evaluator shares the per-atom
	// materializations across nodes (λ sets overlap) and with the final
	// per-relation reduction pass below.
	ev := core.NewEvaluator(db)
	tables := make(map[int]*relation.Table, len(order))
	for _, n := range order {
		lam := make([]relation.Atom, len(n.Lambda))
		for i, id := range n.Lambda {
			lam[i] = body[id]
		}
		j, err := ev.Join(lam)
		if err != nil {
			return rat.Zero, err
		}
		tables[n.ID] = j.Project(n.Chi)
	}
	// First half: bottom-up child semijoins.
	for _, n := range order {
		t := tables[n.ID]
		for _, c := range n.Children {
			t = t.Semijoin(tables[c.ID])
		}
		tables[n.ID] = t
	}
	// Second half: top-down parent semijoins.
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		if n.Parent != nil {
			tables[n.ID] = tables[n.ID].Semijoin(tables[n.Parent.ID])
		}
	}
	// sup(r) = max_i |r_i ⋉ s[cover(i)]| / |r_i|.
	best := rat.Zero
	for i, a := range body {
		ra, err := ev.TableFor(a)
		if err != nil {
			return rat.Zero, err
		}
		if ra.Len() == 0 {
			continue
		}
		node := decomp.CoverNode[i]
		reduced := tables[node.ID].Project(a.Vars())
		num, _ := ra.SemijoinCounts(reduced, nil)
		if num == 0 {
			continue
		}
		best = rat.Max(best, rat.New(int64(num), int64(ra.Len())))
	}
	return best, nil
}
