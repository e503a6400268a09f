package relation

import (
	"reflect"
	"strings"
	"testing"
)

// TestScratchOps checks the kernel-call tally: every scratch-aware
// operator call bumps its counter, ResetOps zeroes them, and the nil
// scratch (the no-pooling path) reports zero ops without panicking.
func TestScratchOps(t *testing.T) {
	sc := NewScratch()
	a := NewTable([]string{"X", "Y"})
	a.Add(Tuple{1, 2})
	a.Add(Tuple{1, 3})
	b := NewTable([]string{"Y"})
	b.Add(Tuple{2})

	out := a.SemijoinS(b, sc)
	a.SemijoinCounts(b, sc)
	a.ProjectS([]string{"X"}, sc)
	sc.Release(out)

	got := sc.Ops()
	want := Ops{Semijoins: 1, SemijoinCounts: 1, Projections: 1, Released: 1}
	if got != want {
		t.Fatalf("Ops() = %+v, want %+v", got, want)
	}

	// Each counted pair adds one SemijoinCounts. Only a key-count build
	// adds a KeyIndexes: a.SemijoinCounts(b) uses b's own row set and
	// builds nothing; PairCounts(b, a) indexes a on Y, the two c counts
	// (keyed on Y too) reuse that index, and Probe(c, a) builds it again.
	// A one-column key is packed into the KeyCounts' own slots, so Reset
	// has no key table to hand back through Release.
	sc.ResetOps()
	a.SemijoinCounts(b, sc)
	c := NewTable([]string{"Y", "Z"})
	c.Add(Tuple{2, 9})
	var ix KeyCounts
	ix.PairCounts(b, a, sc)
	ix.PairCounts(c, a, sc)
	if hb, bh := ix.PairCounts(c, a, sc); hb != 1 || bh != 1 {
		t.Fatalf("PairCounts(c, a) = (%d, %d), want (1, 1)", hb, bh)
	}
	ix.Probe(c, a, sc)
	if !ix.Has(c.Row(0)) {
		t.Fatal("Probe(c, a): Has(c's row) = false, want true")
	}
	ix.Reset(sc)
	want = Ops{SemijoinCounts: 4, KeyIndexes: 2}
	if got := sc.Ops(); got != want {
		t.Fatalf("counting Ops() = %+v, want %+v", got, want)
	}
	sc.ResetOps()
	if sc.Ops() != (Ops{}) {
		t.Fatalf("ResetOps left %+v", sc.Ops())
	}

	// The nil scratch runs the same kernels without a tally.
	var nilSc *Scratch
	if nilSc.Ops() != (Ops{}) {
		t.Fatal("nil scratch reports nonzero ops")
	}
	nilSc.ResetOps()
	if n, _ := a.SemijoinCounts(b, nil); n != 1 {
		t.Fatalf("nil-scratch SemijoinCounts = %d, want 1", n)
	}
}

// TestAtomRendering exercises the term constructors and the Datalog
// rendering rules: named constants quote exactly when the bare name could
// be read as a variable or fails the identifier alphabet.
func TestAtomRendering(t *testing.T) {
	atom := Atom{Pred: "p", Terms: []Term{V("X"), CN("john"), C(7)}}
	if atom.Arity() != 3 {
		t.Fatalf("Arity = %d, want 3", atom.Arity())
	}
	if got := atom.String(); got != "p(X,john,#7)" {
		t.Fatalf("String() = %q", got)
	}
	for name, want := range map[string]string{
		"john":   "john",   // plain identifier
		"Rome":   `"Rome"`, // upper-case start reads as a variable
		"_x":     `"_x"`,   // '_' start reads as a variable
		"a-b":    `"a-b"`,  // '-' is outside the identifier alphabet
		"it'1":   "it'1",   // digits and '\” are identifier bytes
		"a b":    `"a b"`,  // space needs quoting
		"österr": "österr", // non-ASCII letters are identifier runes
		"x€":     `"x€"`,   // non-letter non-ASCII is not
	} {
		a := Atom{Pred: "q", Terms: []Term{CN(name)}}
		if got := a.String(); got != "q("+want+")" {
			t.Errorf("CN(%q) renders %q, want q(%s)", name, got, want)
		}
	}
}

// TestTableString checks the debug rendering: sorted tuples inside a
// variable-labelled set.
func TestTableString(t *testing.T) {
	tb := NewTable([]string{"X", "Y"})
	tb.Add(Tuple{2, 1})
	tb.Add(Tuple{1, 2})
	tb.Add(Tuple{1, 2}) // duplicate is absorbed
	if got := tb.String(); got != "[X,Y]{[1 2] [2 1]}" {
		t.Fatalf("String() = %q", got)
	}
}

// TestTupleCloneAndDictNames covers the small value-layer helpers.
func TestTupleCloneAndDictNames(t *testing.T) {
	orig := Tuple{3, 1, 2}
	c := orig.Clone()
	c[0] = 99
	if orig[0] != 3 {
		t.Fatal("Clone shares storage with the original")
	}

	db := NewDatabase()
	db.MustInsertNamed("p", "zeta", "alpha")
	if got := db.Dict().Names(); !reflect.DeepEqual(got, []string{"alpha", "zeta"}) {
		t.Fatalf("Names() = %v, want sorted [alpha zeta]", got)
	}
}

// TestDatabaseExtend checks the copy-on-write snapshot step: replaced
// relations are swapped, unchanged ones are shared by pointer, new names
// append to the creation order, and the original database is untouched.
func TestDatabaseExtend(t *testing.T) {
	db := NewDatabase()
	db.MustInsertNamed("p", "a", "b")
	db.MustInsertNamed("q", "c")

	repl := NewRelation("p", 2)
	next := db.Extend(map[string]*Relation{"p": repl})
	if next.Relation("p") != repl {
		t.Fatal("Extend did not swap in the replacement")
	}
	if next.Relation("q") != db.Relation("q") {
		t.Fatal("unchanged relation not shared by pointer")
	}
	if db.Relation("p") == repl {
		t.Fatal("Extend mutated the original database")
	}

	fresh := NewRelation("r", 1)
	wider := db.Extend(map[string]*Relation{"r": fresh})
	names := wider.RelationNames()
	if !strings.Contains(strings.Join(names, ","), "r") || len(names) != 3 {
		t.Fatalf("new relation missing from order: %v", names)
	}
	if db.Relation("r") != nil {
		t.Fatal("new relation leaked into the original")
	}
}
