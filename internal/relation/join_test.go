package relation

import (
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// orderedTables builds a deterministic random set of n tables over a small
// variable pool.
func orderedTables(seed int64, n int) []*Table {
	rng := rand.New(rand.NewSource(seed))
	pool := []string{"A", "B", "C", "D", "E"}
	tables := make([]*Table, n)
	for i := range tables {
		w := 1 + rng.Intn(3)
		perm := rng.Perm(len(pool))[:w]
		cols := make([]string, w)
		for k, p := range perm {
			cols[k] = pool[p]
		}
		tab := NewTable(cols)
		tup := make(Tuple, w)
		for r := 0; r < rng.Intn(14); r++ {
			for c := range tup {
				tup[c] = Value(rng.Intn(4))
			}
			tab.Add(tup)
		}
		tables[i] = tab
	}
	return tables
}

// perms3 lists every join order of three tables.
var perms3 = [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}

// JoinTablesOrdered yields the same tuple set under every order, equal to
// the size-greedy join's.
func TestJoinTablesOrdered(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		tables := orderedTables(100+seed, 3)
		want := JoinTablesGreedy(tables)
		for _, order := range perms3 {
			if got := JoinTablesOrdered(tables, order); !got.EqualSet(want) {
				t.Fatalf("seed %d order %v: ordered %v != greedy %v", seed, order, got, want)
			}
		}
	}
}

// Every order-pinned join must produce the same tuple set as the
// shape-greedy join (JoinTablesGreedy), over every order of small inputs,
// and its schema lists the variables in first-appearance order along the
// join order.
func TestCompileJoinPlanOrderMatchesShapePlan(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		tables := orderedTables(seed, 3)
		want := JoinTablesGreedy(tables)
		for _, order := range perms3 {
			got := JoinTablesOrdered(tables, order)
			if !got.EqualSet(want) {
				t.Fatalf("seed %d order %v: %v != %v", seed, order, got, want)
			}
			var vars []string
			seen := map[string]bool{}
			for _, i := range order {
				for _, v := range tables[i].Vars() {
					if !seen[v] {
						seen[v] = true
						vars = append(vars, v)
					}
				}
			}
			if !slices.Equal(got.Vars(), vars) {
				t.Fatalf("seed %d order %v: result schema %v, want %v", seed, order, got.Vars(), vars)
			}
		}
	}
}

// An empty intermediate ends the join early: with the empty table joined
// first, no probe pass runs and the empty result spans all four columns.
func TestJoinTablesOrderedEmptyIntermediate(t *testing.T) {
	big := NewTable([]string{"A", "B"})
	tup := make(Tuple, 2)
	for i := 0; i < 200; i++ {
		tup[0], tup[1] = Value(i), Value(i%7)
		big.Add(tup)
	}
	empty := NewTable([]string{"B", "C"})
	small := NewTable([]string{"C", "D"})
	tup[0], tup[1] = 1, 2
	small.Add(tup)

	got := JoinTablesOrdered([]*Table{big, empty, small}, []int{1, 2, 0})
	if !got.Empty() {
		t.Fatalf("join with empty input yielded %d rows", got.Len())
	}
	if !slices.Equal(got.Vars(), []string{"B", "C", "D", "A"}) {
		t.Fatalf("empty result schema %v, want [B C D A]", got.Vars())
	}
}

// chainDB builds p = {(1,10),(2,20)}, q = {(10,100),(20,200),(99,999)}.
func chainDB() *Database {
	db := NewDatabase()
	db.MustInsertNamed("p", "1", "10")
	db.MustInsertNamed("p", "2", "20")
	db.MustInsertNamed("q", "10", "100")
	db.MustInsertNamed("q", "20", "200")
	db.MustInsertNamed("q", "99", "999")
	return db
}

func TestFromAtomBasic(t *testing.T) {
	db := chainDB()
	tab, err := FromAtom(db, NewAtom("p", "X", "Y"))
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 2 {
		t.Errorf("p(X,Y) has %d rows", tab.Len())
	}
	if got := tab.Vars(); len(got) != 2 || got[0] != "X" || got[1] != "Y" {
		t.Errorf("vars = %v", got)
	}
}

func TestFromAtomRepeatedVariable(t *testing.T) {
	db := NewDatabase()
	db.MustInsertNamed("r", "a", "a")
	db.MustInsertNamed("r", "a", "b")
	db.MustInsertNamed("r", "c", "c")
	tab, err := FromAtom(db, NewAtom("r", "X", "X"))
	if err != nil {
		t.Fatal(err)
	}
	// Only (a,a) and (c,c) satisfy r(X,X); result has one column X.
	if tab.Len() != 2 || len(tab.Vars()) != 1 {
		t.Errorf("r(X,X) = %v", tab)
	}
}

func TestFromAtomConstant(t *testing.T) {
	db := NewDatabase()
	db.MustInsertNamed("r", "a", "b")
	db.MustInsertNamed("r", "c", "d")
	av, _ := db.Dict().Lookup("a")
	atom := Atom{Pred: "r", Terms: []Term{C(av), V("Y")}}
	tab, err := FromAtom(db, atom)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 1 {
		t.Errorf("r(a,Y) = %v", tab)
	}
	bv, _ := db.Dict().Lookup("b")
	if !tab.Contains(Tuple{bv}) {
		t.Errorf("r(a,Y) missing b: %v", tab)
	}
}

func TestFromAtomErrors(t *testing.T) {
	db := chainDB()
	if _, err := FromAtom(db, NewAtom("missing", "X")); err == nil {
		t.Error("missing relation accepted")
	}
	if _, err := FromAtom(db, NewAtom("p", "X")); err == nil {
		t.Error("arity mismatch accepted")
	}
}

func TestJoinAtomsChain(t *testing.T) {
	db := chainDB()
	j, err := JoinAtoms(db, []Atom{NewAtom("p", "X", "Y"), NewAtom("q", "Y", "Z")})
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != 2 {
		t.Fatalf("chain join = %v", j)
	}
	// Check one expected tuple: X=1, Y=10, Z=100 (in interned values).
	v1, _ := db.Dict().Lookup("1")
	v10, _ := db.Dict().Lookup("10")
	v100, _ := db.Dict().Lookup("100")
	found := false
	xi, yi, zi := j.Pos("X"), j.Pos("Y"), j.Pos("Z")
	for _, tup := range j.Tuples() {
		if tup[xi] == v1 && tup[yi] == v10 && tup[zi] == v100 {
			found = true
		}
	}
	if !found {
		t.Errorf("expected tuple missing from %v", j)
	}
}

func TestJoinAtomsEmptyList(t *testing.T) {
	db := chainDB()
	j, err := JoinAtoms(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != 1 || len(j.Vars()) != 0 {
		t.Errorf("J(∅) = %v, want unit", j)
	}
}

func TestJoinAtomsEmptyResultKeepsSchema(t *testing.T) {
	db := NewDatabase()
	db.MustInsertNamed("a", "1")
	db.MustAddRelation("b", 1) // empty relation
	db.MustInsertNamed("c", "1")
	j, err := JoinAtoms(db, []Atom{NewAtom("a", "X"), NewAtom("b", "Y"), NewAtom("c", "Z")})
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != 0 {
		t.Errorf("join with empty relation non-empty: %v", j)
	}
	if len(j.Vars()) != 3 {
		t.Errorf("empty join lost schema: %v", j.Vars())
	}
}

func TestJoinAtomsCartesianComponents(t *testing.T) {
	db := NewDatabase()
	db.MustInsertNamed("a", "1")
	db.MustInsertNamed("a", "2")
	db.MustInsertNamed("b", "7")
	db.MustInsertNamed("b", "8")
	db.MustInsertNamed("b", "9")
	j, err := JoinAtoms(db, []Atom{NewAtom("a", "X"), NewAtom("b", "Y")})
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != 6 {
		t.Errorf("cartesian join = %d rows, want 6", j.Len())
	}
}

func TestJoinAtomsSharedAtomTwice(t *testing.T) {
	db := chainDB()
	// Joining the same atom twice is idempotent.
	j, err := JoinAtoms(db, []Atom{NewAtom("p", "X", "Y"), NewAtom("p", "X", "Y")})
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != 2 {
		t.Errorf("idempotent join = %d rows", j.Len())
	}
}

func TestJoinAtomsTriangle(t *testing.T) {
	// Triangle query on a small graph: e(X,Y), e(Y,Z), e(Z,X).
	db := NewDatabase()
	edges := [][2]string{{"a", "b"}, {"b", "c"}, {"c", "a"}, {"a", "d"}}
	for _, e := range edges {
		db.MustInsertNamed("e", e[0], e[1])
	}
	j, err := JoinAtoms(db, []Atom{
		NewAtom("e", "X", "Y"), NewAtom("e", "Y", "Z"), NewAtom("e", "Z", "X"),
	})
	if err != nil {
		t.Fatal(err)
	}
	// The only triangle is a->b->c->a, giving 3 rotations.
	if j.Len() != 3 {
		t.Errorf("triangle join = %d rows, want 3: %v", j.Len(), j)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db := chainDB()
	if err := SaveCSVDir(db, dir); err != nil {
		t.Fatal(err)
	}
	back, err := LoadCSVDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRelations() != db.NumRelations() {
		t.Fatalf("round trip lost relations: %d vs %d", back.NumRelations(), db.NumRelations())
	}
	for _, name := range db.RelationNames() {
		orig, got := db.Relation(name), back.Relation(name)
		if got == nil || got.Len() != orig.Len() || got.Arity() != orig.Arity() {
			t.Errorf("relation %s mismatched after round trip", name)
		}
	}
	// Tuple-level check via names.
	for _, name := range db.RelationNames() {
		for _, tup := range db.Relation(name).Tuples() {
			names := make([]string, len(tup))
			for i, v := range tup {
				names[i] = db.Dict().Name(v)
			}
			gt := make(Tuple, len(names))
			for i, s := range names {
				v, ok := back.Dict().Lookup(s)
				if !ok {
					t.Fatalf("constant %q lost", s)
				}
				gt[i] = v
			}
			if !back.Relation(name).Contains(gt) {
				t.Errorf("tuple %v of %s lost in round trip", names, name)
			}
		}
	}
}

func TestLoadCSVComments(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "r.csv"), []byte("# comment\na,b\na,b\nc,d\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := LoadCSVDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if db.Relation("r").Len() != 2 {
		t.Errorf("r has %d tuples, want 2 (dedup + comment skip)", db.Relation("r").Len())
	}
}

func TestLoadCSVRaggedRows(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "r.csv"), []byte("a,b\nc\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCSVDir(dir); err == nil {
		t.Error("ragged rows accepted")
	}
}
