package relation

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mkTable(t *testing.T, vars []string, rows ...Tuple) *Table {
	t.Helper()
	tab := NewTable(vars)
	for _, r := range rows {
		tab.Add(r)
	}
	return tab
}

func TestTableAddDedup(t *testing.T) {
	tab := NewTable([]string{"X", "Y"})
	if !tab.Add(Tuple{1, 2}) || tab.Add(Tuple{1, 2}) {
		t.Error("dedup broken")
	}
	if tab.Len() != 1 {
		t.Errorf("Len = %d", tab.Len())
	}
}

func TestTableDuplicateColumnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	NewTable([]string{"X", "X"})
}

func TestUnit(t *testing.T) {
	u := Unit()
	if u.Len() != 1 || len(u.Vars()) != 0 {
		t.Errorf("Unit = %v", u)
	}
	tab := mkTable(t, []string{"X"}, Tuple{1}, Tuple{2})
	j := tab.NaturalJoin(u)
	if !j.EqualSet(tab) {
		t.Errorf("t ⋈ Unit = %v, want %v", j, tab)
	}
	j2 := u.NaturalJoin(tab)
	if j2.Len() != 2 {
		t.Errorf("Unit ⋈ t has %d tuples", j2.Len())
	}
}

func TestProject(t *testing.T) {
	tab := mkTable(t, []string{"X", "Y"}, Tuple{1, 2}, Tuple{1, 3}, Tuple{2, 3})
	p := tab.Project([]string{"X"})
	if p.Len() != 2 {
		t.Errorf("projection has %d tuples, want 2", p.Len())
	}
	if !p.Contains(Tuple{1}) || !p.Contains(Tuple{2}) {
		t.Error("projection missing tuples")
	}
	// Projection onto all columns is identity.
	if !tab.Project([]string{"X", "Y"}).EqualSet(tab) {
		t.Error("full projection not identity")
	}
	// Column reorder.
	r := tab.Project([]string{"Y", "X"})
	if !r.Contains(Tuple{2, 1}) {
		t.Error("reordered projection wrong")
	}
}

func TestNaturalJoinShared(t *testing.T) {
	// p(X,Y) join q(Y,Z), the running example of the paper.
	p := mkTable(t, []string{"X", "Y"}, Tuple{1, 10}, Tuple{2, 20})
	q := mkTable(t, []string{"Y", "Z"}, Tuple{10, 100}, Tuple{10, 101}, Tuple{30, 300})
	j := p.NaturalJoin(q)
	if got := j.Len(); got != 2 {
		t.Fatalf("join has %d tuples, want 2: %v", got, j)
	}
	want := mkTable(t, []string{"X", "Y", "Z"}, Tuple{1, 10, 100}, Tuple{1, 10, 101})
	if !want.EqualSet(j) {
		t.Errorf("join = %v, want %v", j, want)
	}
}

func TestNaturalJoinNoShared(t *testing.T) {
	a := mkTable(t, []string{"X"}, Tuple{1}, Tuple{2})
	b := mkTable(t, []string{"Y"}, Tuple{7})
	j := a.NaturalJoin(b)
	if j.Len() != 2 {
		t.Errorf("cartesian join has %d tuples, want 2", j.Len())
	}
	if !j.Contains(Tuple{1, 7}) || !j.Contains(Tuple{2, 7}) {
		t.Errorf("cartesian join contents wrong: %v", j)
	}
}

func TestNaturalJoinIdentical(t *testing.T) {
	a := mkTable(t, []string{"X", "Y"}, Tuple{1, 2}, Tuple{3, 4})
	j := a.NaturalJoin(a)
	if !j.EqualSet(a) {
		t.Errorf("self join = %v, want %v", j, a)
	}
}

func TestSemijoin(t *testing.T) {
	a := mkTable(t, []string{"X", "Y"}, Tuple{1, 10}, Tuple{2, 20}, Tuple{3, 30})
	b := mkTable(t, []string{"Y", "Z"}, Tuple{10, 0}, Tuple{30, 0})
	s := a.Semijoin(b)
	want := mkTable(t, []string{"X", "Y"}, Tuple{1, 10}, Tuple{3, 30})
	if !want.EqualSet(s) {
		t.Errorf("semijoin = %v, want %v", s, want)
	}
}

func TestSemijoinNoSharedVars(t *testing.T) {
	a := mkTable(t, []string{"X"}, Tuple{1}, Tuple{2})
	nonEmpty := mkTable(t, []string{"Y"}, Tuple{9})
	empty := NewTable([]string{"Y"})
	if got := a.Semijoin(nonEmpty); got.Len() != 2 {
		t.Errorf("semijoin with non-empty disjoint table = %d tuples, want 2", got.Len())
	}
	if got := a.Semijoin(empty); got.Len() != 0 {
		t.Errorf("semijoin with empty disjoint table = %d tuples, want 0", got.Len())
	}
}

func TestEqualSetColumnOrderInsensitive(t *testing.T) {
	a := mkTable(t, []string{"X", "Y"}, Tuple{1, 2})
	b := mkTable(t, []string{"Y", "X"}, Tuple{2, 1})
	if !a.EqualSet(b) {
		t.Error("EqualSet should ignore column order")
	}
	c := mkTable(t, []string{"Y", "X"}, Tuple{1, 2})
	if a.EqualSet(c) {
		t.Error("EqualSet matched different contents")
	}
}

func TestSortedTuplesDeterministic(t *testing.T) {
	tab := mkTable(t, []string{"X", "Y"}, Tuple{2, 1}, Tuple{1, 2}, Tuple{1, 1})
	s := tab.SortedTuples()
	if s[0][0] != 1 || s[0][1] != 1 || s[2][0] != 2 {
		t.Errorf("SortedTuples = %v", s)
	}
}

// randomTable builds a random table for property tests.
func randomTable(rng *rand.Rand, vars []string, domain, rows int) *Table {
	t := NewTable(vars)
	for i := 0; i < rows; i++ {
		tup := make(Tuple, len(vars))
		for j := range tup {
			tup[j] = Value(rng.Intn(domain))
		}
		t.Add(tup)
	}
	return t
}

// Property: natural join is commutative as a tuple set.
func TestQuickJoinCommutative(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed uint16) bool {
		r := rand.New(rand.NewSource(int64(seed)))
		a := randomTable(r, []string{"X", "Y"}, 4, rng.Intn(12))
		b := randomTable(r, []string{"Y", "Z"}, 4, rng.Intn(12))
		ab := a.NaturalJoin(b)
		ba := b.NaturalJoin(a)
		return ab.EqualSet(ba)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: natural join is associative as a tuple set.
func TestQuickJoinAssociative(t *testing.T) {
	f := func(seed uint16) bool {
		r := rand.New(rand.NewSource(int64(seed)))
		a := randomTable(r, []string{"X", "Y"}, 3, r.Intn(10))
		b := randomTable(r, []string{"Y", "Z"}, 3, r.Intn(10))
		c := randomTable(r, []string{"Z", "W"}, 3, r.Intn(10))
		left := a.NaturalJoin(b).NaturalJoin(c)
		right := a.NaturalJoin(b.NaturalJoin(c))
		return left.EqualSet(right)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: semijoin equals projection of the natural join onto the left
// columns (the identity used to compute fractions in Definition 2.6).
func TestQuickSemijoinIsJoinProjection(t *testing.T) {
	f := func(seed uint16) bool {
		r := rand.New(rand.NewSource(int64(seed)))
		a := randomTable(r, []string{"X", "Y"}, 3, r.Intn(12))
		b := randomTable(r, []string{"Y", "Z"}, 3, r.Intn(12))
		semi := a.Semijoin(b)
		proj := a.NaturalJoin(b).Project([]string{"X", "Y"})
		return semi.EqualSet(proj)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: semijoin result is a subset of the left operand and idempotent.
func TestQuickSemijoinSubsetIdempotent(t *testing.T) {
	f := func(seed uint16) bool {
		r := rand.New(rand.NewSource(int64(seed)))
		a := randomTable(r, []string{"X", "Y"}, 3, r.Intn(12))
		b := randomTable(r, []string{"Y"}, 3, r.Intn(6))
		s := a.Semijoin(b)
		if s.Len() > a.Len() {
			return false
		}
		for _, tup := range s.Tuples() {
			if !a.Contains(tup) {
				return false
			}
		}
		return s.Semijoin(b).EqualSet(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
