package relation

import (
	"cmp"
	"fmt"
	"slices"
)

// FromAtom materializes the table of assignments to varo(a) that satisfy
// atom a in db: repeated variables within the atom act as equality
// selections and constant terms act as constant selections, exactly as in
// Datalog. The result's columns are a.Vars() (distinct variables in
// first-occurrence order).
//
// It returns an error if the atom's predicate is not a relation of db or if
// the arity does not match.
func FromAtom(db *Database, a Atom) (*Table, error) {
	r := db.Relation(a.Pred)
	if r == nil {
		return nil, fmt.Errorf("relation: unknown relation %q in atom %s", a.Pred, a.String())
	}
	if r.Arity() != len(a.Terms) {
		return nil, fmt.Errorf("relation: atom %s has arity %d but relation %s has arity %d",
			a.String(), len(a.Terms), a.Pred, r.Arity())
	}
	vars := a.Vars()
	out := newTableOwning(vars, r.Len())
	firstPos := make(map[string]int, len(vars)) // variable -> first term position
	for i, t := range a.Terms {
		if t.IsVar() {
			if _, ok := firstPos[t.Var]; !ok {
				firstPos[t.Var] = i
			}
		}
	}
	// Resolve named constants against the active domain once; a name that
	// was never interned matches no tuple, so the selection is empty.
	resolved := make([]Value, len(a.Terms))
	for i, t := range a.Terms {
		if t.IsVar() {
			continue
		}
		v := t.Const
		if t.ConstName != "" {
			var ok bool
			v, ok = db.Dict().Lookup(t.ConstName)
			if !ok {
				return out, nil
			}
		}
		resolved[i] = v
	}
	// Compile the per-row checks so the scan does no string-map lookups:
	// eqPos[i] = -1 for a constant term (compare against resolved[i]),
	// i for a variable's first occurrence (no check), or the first-occurrence
	// position of a repeated variable (equality selection).
	eqPos := make([]int, len(a.Terms))
	for i, t := range a.Terms {
		if t.IsVar() {
			eqPos[i] = firstPos[t.Var]
		} else {
			eqPos[i] = -1
		}
	}
	// varPos[i] is the term position feeding output column i.
	varPos := make([]int, len(vars))
	for i, v := range vars {
		varPos[i] = firstPos[v]
	}
	buf := make(Tuple, len(vars))
tuples:
	for ri := 0; ri < r.Len(); ri++ {
		tup := r.Row(ri)
		for i, p := range eqPos {
			if p == -1 {
				if tup[i] != resolved[i] {
					continue tuples // constant mismatch
				}
			} else if p != i && tup[p] != tup[i] {
				continue tuples // repeated variable mismatch
			}
		}
		for i, p := range varPos {
			buf[i] = tup[p]
		}
		// Duplicate-free by construction: every term position is either a
		// fixed constant, equal to a repeated variable's first occurrence,
		// or itself a first occurrence (an output column), so the source row
		// is fully determined by the emitted tuple.
		out.addUnique(buf)
	}
	return out, nil
}

// JoinAtoms computes J(R) for the atom set R (Definition 2.6): the natural
// join of the relations corresponding to the atoms, as a table over att(R).
// For an empty atom list it returns the Unit table (join identity).
//
// Atoms are joined greedily (JoinTablesGreedy): the next atom joined is one
// sharing variables with the result so far (smallest first), to keep
// intermediates small.
func JoinAtoms(db *Database, atoms []Atom) (*Table, error) {
	if len(atoms) == 0 {
		return Unit(), nil
	}
	tables := make([]*Table, len(atoms))
	for i, a := range atoms {
		t, err := FromAtom(db, a)
		if err != nil {
			return nil, err
		}
		tables[i] = t
	}
	return JoinTablesGreedy(tables), nil
}

// JoinTablesOrdered joins tables in exactly the given order (a permutation
// of table indices): the accumulated result starts at tables[order[0]] and
// each following index is one NaturalJoin step. It is the one multi-table
// join executor; the order comes from the caller — the statistics layer's
// cost-based search or GreedyOrderInto's size-greedy pick. As soon as an
// intermediate is empty, the empty result is built directly over the
// unioned schema without joining (and hash-indexing) the remaining tables.
// For a single input the table itself is returned; callers must treat
// results as immutable.
func JoinTablesOrdered(tables []*Table, order []int) *Table {
	acc := tables[order[0]]
	for k := 1; k < len(order); k++ {
		if acc.Empty() {
			outVars := append([]string(nil), acc.Vars()...)
			for _, j := range order[k:] {
				for _, v := range tables[j].Vars() {
					if !slices.Contains(outVars, v) {
						outVars = append(outVars, v)
					}
				}
			}
			return newTableOwning(outVars, 0)
		}
		acc = acc.NaturalJoin(tables[order[k]])
	}
	return acc
}

// JoinTablesGreedy joins tables in the size-aware greedy order
// (GreedyOrderInto) through JoinTablesOrdered. It must not be given an
// empty slice. The result's column order depends on the join order chosen.
func JoinTablesGreedy(tables []*Table) *Table {
	return JoinTablesOrdered(tables, GreedyOrderInto(tables, make([]int, len(tables))))
}

// GreedyOrderInto returns the size-greedy join order of tables, written
// into order (whose length must be len(tables)): start with the smallest
// table; repeatedly pick the smallest remaining table that shares a
// variable with the tables picked so far, falling back to the smallest
// overall (a cartesian step) if none does. The pick depends only on the
// table sizes and schemas, never on intermediate results, so the whole
// order is fixed before the join runs.
func GreedyOrderInto(tables []*Table, order []int) []int {
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(tables[a].Len(), tables[b].Len()) })
	// order[:k] is the picked prefix and order[k:] the remaining tables,
	// still sorted by size: the pick rotates into slot k, keeping the rest
	// in size order.
	for k := 1; k < len(order); k++ {
		pick := k // no shared variables anywhere: cartesian step
		for c := k; c < len(order); c++ {
			if sharesVar(tables[order[c]], tables, order[:k]) {
				pick = c
				break
			}
		}
		p := order[pick]
		copy(order[k+1:pick+1], order[k:pick])
		order[k] = p
	}
	return order
}

// sharesVar reports whether t has a column of any of tables[picked...].
func sharesVar(t *Table, tables []*Table, picked []int) bool {
	for _, v := range t.Vars() {
		for _, j := range picked {
			if tables[j].HasVar(v) {
				return true
			}
		}
	}
	return false
}
