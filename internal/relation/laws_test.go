package relation

// Algebraic laws of the relational substrate, run as randomized property
// tests against the columnar implementation. These pin the set-semantics
// contract the index definitions (Definition 2.6) rely on, independently of
// the storage layout: the old row-oriented implementation satisfied the same
// laws, so they double as a behavioral regression suite for the columnar
// rewrite.

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// lawTable builds a random table over the given columns.
func lawTable(r *rand.Rand, vars []string, domain, maxRows int) *Table {
	t := NewTable(vars)
	rows := r.Intn(maxRows + 1)
	tup := make(Tuple, len(vars))
	for i := 0; i < rows; i++ {
		for j := range tup {
			tup[j] = Value(r.Intn(domain))
		}
		t.Add(tup)
	}
	return t
}

// Law: Unit is a two-sided identity of the natural join.
func TestLawUnitJoinIdentity(t *testing.T) {
	f := func(seed uint16) bool {
		r := rand.New(rand.NewSource(int64(seed)))
		a := lawTable(r, []string{"X", "Y", "Z"}, 4, 15)
		return a.NaturalJoin(Unit()).EqualSet(a) && Unit().NaturalJoin(a).EqualSet(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Law: natural join is commutative up to column order (EqualSet compares by
// column name, not position).
func TestLawJoinCommutative(t *testing.T) {
	f := func(seed uint16) bool {
		r := rand.New(rand.NewSource(int64(seed)))
		a := lawTable(r, []string{"X", "Y"}, 4, 12)
		b := lawTable(r, []string{"Y", "Z"}, 4, 12)
		ab, ba := a.NaturalJoin(b), b.NaturalJoin(a)
		// The column orders differ (X,Y,Z vs Y,Z,X); the tuple sets must not.
		return ab.EqualSet(ba) && !slices.Equal(ab.Vars(), ba.Vars())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Law: projection is idempotent: π_V(π_V(t)) = π_V(t), and projecting onto
// all columns is the identity.
func TestLawProjectIdempotent(t *testing.T) {
	f := func(seed uint16) bool {
		r := rand.New(rand.NewSource(int64(seed)))
		a := lawTable(r, []string{"X", "Y", "Z"}, 3, 20)
		p := a.Project([]string{"X", "Z"})
		if !p.Project([]string{"X", "Z"}).EqualSet(p) {
			return false
		}
		return a.Project([]string{"X", "Y", "Z"}).EqualSet(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// FromAtom with a repeated variable acts as an equality selection, and a
// constant term as a constant selection (Datalog semantics).
func TestLawFromAtomRepeatedVarsAndConstants(t *testing.T) {
	db := NewDatabase()
	c0 := db.Dict().Intern("a")
	c1 := db.Dict().Intern("b")
	c2 := db.Dict().Intern("c")
	rel := db.MustAddRelation("p", 3)
	rel.Insert(Tuple{c0, c0, c1}) // matches p(X,X,Y)
	rel.Insert(Tuple{c0, c1, c2})
	rel.Insert(Tuple{c1, c1, c1}) // matches p(X,X,Y)
	rel.Insert(Tuple{c2, c0, c1})

	// Repeated variable: p(X,X,Y) selects rows with t[0]==t[1].
	rep, err := FromAtom(db, NewAtom("p", "X", "X", "Y"))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(rep.Vars(), []string{"X", "Y"}) {
		t.Fatalf("p(X,X,Y) columns = %v, want [X Y]", rep.Vars())
	}
	want := mkTable(t, []string{"X", "Y"}, Tuple{c0, c1}, Tuple{c1, c1})
	if !want.EqualSet(rep) {
		t.Errorf("p(X,X,Y) = %v, want %v", rep, want)
	}

	// Constant term: p(X,b,Y) selects rows with t[1]==b.
	konst, err := FromAtom(db, Atom{Pred: "p", Terms: []Term{V("X"), C(c1), V("Y")}})
	if err != nil {
		t.Fatal(err)
	}
	wantK := mkTable(t, []string{"X", "Y"}, Tuple{c0, c2}, Tuple{c1, c1})
	if !wantK.EqualSet(konst) {
		t.Errorf("p(X,b,Y) = %v, want %v", konst, wantK)
	}

	// Repeated variable AND constant: p(X,X,b) selects t[0]==t[1] && t[2]==b,
	// matching (a,a,b) and (b,b,b).
	both, err := FromAtom(db, Atom{Pred: "p", Terms: []Term{V("X"), V("X"), C(c1)}})
	if err != nil {
		t.Fatal(err)
	}
	wantB := mkTable(t, []string{"X"}, Tuple{c0}, Tuple{c1})
	if !wantB.EqualSet(both) {
		t.Errorf("p(X,X,c1) = %v, want %v", both, wantB)
	}
}

// JoinAtoms on an unsatisfiable atom set returns an empty table that still
// carries the full unioned schema att(R) — including the columns of atoms
// never joined because of the early exit.
func TestLawJoinAtomsEmptySchema(t *testing.T) {
	db := NewDatabase()
	a := db.Dict().Intern("a")
	b := db.Dict().Intern("b")
	db.MustAddRelation("p", 2).Insert(Tuple{a, a})
	db.MustAddRelation("q", 2).Insert(Tuple{b, b}) // p ⋈ q on Y is empty
	db.MustAddRelation("r", 2).Insert(Tuple{a, b})
	atoms := []Atom{
		NewAtom("p", "X", "Y"),
		NewAtom("q", "Y", "Z"),
		NewAtom("r", "Z", "W"),
	}
	j, err := JoinAtoms(db, atoms)
	if err != nil {
		t.Fatal(err)
	}
	if !j.Empty() {
		t.Fatalf("join should be empty, got %v", j)
	}
	for _, v := range AtomsVars(atoms) {
		if !j.HasVar(v) {
			t.Errorf("empty join result missing column %q (schema %v)", v, j.Vars())
		}
	}
}

// The size-greedy join agrees with the left-to-right chain of natural
// joins on random chain workloads.
func TestLawGreedyMatchesChain(t *testing.T) {
	f := func(seed uint16) bool {
		r := rand.New(rand.NewSource(int64(seed)))
		a := lawTable(r, []string{"X", "Y"}, 3, 10)
		b := lawTable(r, []string{"Y", "Z"}, 3, 10)
		c := lawTable(r, []string{"Z", "W"}, 3, 10)
		got := JoinTablesGreedy([]*Table{a, b, c})
		want := a.NaturalJoin(b).NaturalJoin(c)
		return got.EqualSet(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
