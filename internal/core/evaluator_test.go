package core

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/mqgo/metaquery/internal/relation"
	"github.com/mqgo/metaquery/internal/stats"
)

// BenchmarkEvaluatorJoin joins the first 1, 2 and 3 atoms of the chain
// p(X,Y), q(Y,Z), r(Z,W) (200 tuples each over 40 constants) through
// Evaluator.Join with warm atom and estimate caches, on evaluators with
// and without statistics; allocs/op is the cost of one join beyond its
// build/probe passes.
func BenchmarkEvaluatorJoin(b *testing.B) {
	db := relation.NewDatabase()
	rng := rand.New(rand.NewSource(5))
	for _, name := range []string{"p", "q", "r"} {
		rel := db.MustAddRelation(name, 2)
		for i := 0; i < 200; i++ {
			rel.Insert(relation.Tuple{
				db.Dict().Intern(fmt.Sprint(rng.Intn(40))),
				db.Dict().Intern(fmt.Sprint(rng.Intn(40))),
			})
		}
	}
	chain := []relation.Atom{
		relation.NewAtom("p", "X", "Y"),
		relation.NewAtom("q", "Y", "Z"),
		relation.NewAtom("r", "Z", "W"),
	}
	evs := []struct {
		name string
		ev   *Evaluator
	}{
		{"stats", NewEvaluatorStats(db, stats.Collect(db))},
		{"nostats", NewEvaluator(db)},
	}
	for _, e := range evs {
		for n := 1; n <= len(chain); n++ {
			atoms := chain[:n]
			b.Run(fmt.Sprintf("%s/atoms=%d", e.name, n), func(b *testing.B) {
				if _, err := e.ev.Join(atoms); err != nil { // warm the caches
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := e.ev.Join(atoms); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestEvaluatorPairCountsMemo checks the pair-count memo: counts of two
// atom tables are memoized and served without counting, any other table
// (Unit, a copy with equal rows, a projection) is counted every time and
// leaves no entry, and Fork carries an entry exactly when it carries both
// of its tables.
func TestEvaluatorPairCountsMemo(t *testing.T) {
	db := epochTestDB()
	ev := NewEvaluatorStats(db, stats.Collect(db))
	table := func(ev *Evaluator, a relation.Atom) *relation.Table {
		t.Helper()
		tab, err := ev.TableFor(a)
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	h, b := table(ev, relation.NewAtom("u", "X")), table(ev, relation.NewAtom("p", "X", "Y"))
	var ix relation.KeyCounts
	sc := relation.NewScratch()
	wantHB, wantBH := h.SemijoinCounts(b, nil)
	for i := 0; i < 2; i++ {
		hb, bh := ev.PairCounts(h, b, &ix, sc)
		ix.Reset(sc)
		if hb != wantHB || bh != wantBH {
			t.Fatalf("call %d: PairCounts = %d, %d; want %d, %d", i, hb, bh, wantHB, wantBH)
		}
	}
	if n := sc.Ops().SemijoinCounts; n != 1 {
		t.Fatalf("%d counting passes for two calls on one pair, want 1 (the second is a memo hit)", n)
	}
	if len(ev.pairs) != 1 {
		t.Fatalf("%d memo entries, want 1", len(ev.pairs))
	}

	// Tables the evaluator did not materialize: counted, never memoized.
	for _, other := range []*relation.Table{relation.Unit(), b.Clone(), b.Project([]string{"X"})} {
		want1, want2 := h.SemijoinCounts(other, nil)
		for _, pair := range [][2]*relation.Table{{h, other}, {other, h}} {
			sc.ResetOps()
			hb, bh := ev.PairCounts(pair[0], pair[1], &ix, sc)
			ix.Reset(sc)
			if pair[0] == other {
				hb, bh = bh, hb
			}
			if hb != want1 || bh != want2 {
				t.Fatalf("PairCounts against %v = %d, %d; want %d, %d", other.Vars(), hb, bh, want1, want2)
			}
			if sc.Ops().SemijoinCounts != 1 {
				t.Fatalf("PairCounts against a non-cached %v table did not count", other.Vars())
			}
		}
	}
	if len(ev.pairs) != 1 {
		t.Fatalf("%d memo entries after non-cached pairs, want 1", len(ev.pairs))
	}

	// Fork: a delta to q leaves u and p — and the entry — in place; a delta
	// to u drops u's table and with it the entry.
	extend := func(from *relation.Database, name string, row ...string) *relation.Database {
		r := from.Relation(name).Extend()
		tup := make(relation.Tuple, len(row))
		for i, c := range row {
			tup[i] = from.Dict().Intern(c)
		}
		r.Insert(tup)
		r.Seal()
		return from.Extend(map[string]*relation.Relation{name: r})
	}
	db2 := extend(db, "q", "x", "y")
	ev2 := ev.Fork(db2, stats.Collect(db2))
	if len(ev2.pairs) != 1 || table(ev2, relation.NewAtom("u", "X")) != h {
		t.Fatalf("fork past a delta to q carried %d entries, want 1", len(ev2.pairs))
	}
	sc.ResetOps()
	if hb, bh := ev2.PairCounts(h, b, &ix, sc); hb != wantHB || bh != wantBH || sc.Ops().SemijoinCounts != 0 {
		t.Fatalf("carried entry: %d, %d with %d counting passes", hb, bh, sc.Ops().SemijoinCounts)
	}
	db3 := extend(db2, "u", "b")
	ev3 := ev2.Fork(db3, stats.Collect(db3))
	if len(ev3.pairs) != 0 {
		t.Fatalf("fork past a delta to u carried %d entries, want 0", len(ev3.pairs))
	}
	h3 := table(ev3, relation.NewAtom("u", "X"))
	if hb, _ := ev3.PairCounts(h3, b, &ix, sc); hb != wantHB+1 {
		t.Fatalf("|u ⋉ p| after inserting u(b) = %d, want %d", hb, wantHB+1)
	}
	ix.Reset(sc)
	if len(ev.pairs) != 1 || len(ev3.pairs) != 1 {
		t.Fatalf("memo entries: old evaluator %d, new %d; want 1 each", len(ev.pairs), len(ev3.pairs))
	}
}
