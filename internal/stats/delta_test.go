package stats_test

import (
	"fmt"
	"testing"

	"github.com/mqgo/metaquery/internal/gen"
	"github.com/mqgo/metaquery/internal/relation"
	"github.com/mqgo/metaquery/internal/stats"
)

// applyChange mutates db per ch and returns the change with Added/Removed
// restricted to actual membership changes, as WithDelta requires.
func applyChange(t *testing.T, db *relation.Database, name string, add, remove [][]string) stats.RelationChange {
	t.Helper()
	r := db.Relation(name)
	ch := stats.RelationChange{Name: name}
	for _, row := range remove {
		tup := make(relation.Tuple, len(row))
		for i, c := range row {
			v, ok := db.Dict().Lookup(c)
			if !ok {
				t.Fatalf("constant %q not interned", c)
			}
			tup[i] = v
		}
		if r.Delete(tup) {
			ch.Removed = append(ch.Removed, tup)
		}
	}
	for _, row := range add {
		tup := make(relation.Tuple, len(row))
		for i, c := range row {
			tup[i] = db.Dict().Intern(c)
		}
		if r.Insert(tup) {
			ch.Added = append(ch.Added, tup)
		}
	}
	return ch
}

// TestWithDeltaMatchesRecollection drives the value counts through
// insert/delete batches on generated databases and checks, after each
// batch, that WithDelta's incrementally maintained statistics are
// bit-identical (DiffFrom) to a from-scratch Collect on the
// mutated database — and that the pre-delta Stats value is untouched.
func TestWithDeltaMatchesRecollection(t *testing.T) {
	for _, shape := range []string{"t0-chain", "t1-cycle", "t2-pad"} {
		t.Run(shape, func(t *testing.T) {
			s, err := gen.NewScenario(3, shape)
			if err != nil {
				t.Fatal(err)
			}
			db := s.DB.Clone()
			st := stats.Collect(db)
			if st.Database() != db {
				t.Fatal("Database accessor does not return the collected database")
			}
			baseline := stats.Collect(s.DB)

			for batch := 0; batch < 4; batch++ {
				name := db.RelationNames()[batch%db.NumRelations()]
				r := db.Relation(name)
				var remove [][]string
				if r.Len() > 0 {
					row := r.Row(0)
					rem := make([]string, len(row))
					for i, v := range row {
						rem[i] = db.Dict().Name(v)
					}
					remove = [][]string{rem}
				}
				add := make([][]string, 2)
				for i := range add {
					row := make([]string, r.Arity())
					for c := range row {
						row[c] = fmt.Sprintf("delta%d_%d_%d", batch, i, c)
					}
					add[i] = row
				}
				ch := applyChange(t, db, name, add, remove)
				st = st.WithDelta(db, []stats.RelationChange{ch})
				if d := st.DiffFrom(stats.Collect(db)); d != "" {
					t.Fatalf("batch %d: incremental stats diverge: %s", batch, d)
				}
			}
			if d := baseline.DiffFrom(stats.Collect(s.DB)); d != "" {
				t.Fatalf("pre-delta stats changed: %s", d)
			}
		})
	}
}

// TestWithDeltaEdgeCases covers the recollection fallbacks: a change for a
// relation the database no longer has, a change for a brand-new relation,
// and the StalenessRebuild cap forcing a periodic exact recollection.
func TestWithDeltaEdgeCases(t *testing.T) {
	db := relation.NewDatabase()
	db.MustInsertNamed("p", "a", "b")
	db.MustInsertNamed("p", "c", "d")
	db.MustInsertNamed("q", "x")

	// Unknown relation in the change list: dropped from the new Stats.
	st := stats.Collect(db)
	st2 := st.WithDelta(db, []stats.RelationChange{{Name: "gone"}})
	if st2.Relation("gone") != nil {
		t.Error("WithDelta kept stats for a relation the database lacks")
	}
	if d := st2.DiffFrom(stats.Collect(db)); d != "" {
		t.Fatalf("dropping an unknown relation broke the rest: %s", d)
	}

	// Brand-new relation: no prior entry, recollected from the database.
	if _, err := db.AddRelation("r", 2); err != nil {
		t.Fatal(err)
	}
	ch := applyChange(t, db, "r", [][]string{{"m", "n"}}, nil)
	st3 := st2.WithDelta(db, []stats.RelationChange{ch})
	if rs := st3.Relation("r"); rs == nil || rs.Rows != 1 {
		t.Fatalf("new relation stats %+v", st3.Relation("r"))
	}

	// StalenessRebuild: the value counts absorb only so many deltas
	// before recollecting; the result must stay exact throughout.
	stN := stats.Collect(db)
	for i := 0; i < stats.StalenessRebuild+2; i++ {
		ch := applyChange(t, db, "q", [][]string{{fmt.Sprintf("v%d", i)}}, nil)
		stN = stN.WithDelta(db, []stats.RelationChange{ch})
	}
	if d := stN.DiffFrom(stats.Collect(db)); d != "" {
		t.Fatalf("stats drifted across the staleness rebuild: %s", d)
	}
}

// TestDiffFromReportsDivergence: DiffFrom is the harness's drift detector;
// each structural difference must be reported, not silently passed.
func TestDiffFromReportsDivergence(t *testing.T) {
	mk := func(rows ...[]string) *relation.Database {
		db := relation.NewDatabase()
		for _, r := range rows {
			db.MustInsertNamed(r[0], r[1:]...)
		}
		return db
	}
	base := mk([]string{"p", "a", "b"}, []string{"p", "c", "d"})
	cases := []struct {
		name  string
		other *relation.Database
	}{
		{"missing relation", mk([]string{"q", "a"})},
		{"row count", mk([]string{"p", "a", "b"})},
		{"distinct values", mk([]string{"p", "a", "b"}, []string{"p", "a", "d"})},
	}
	st := stats.Collect(base)
	if d := st.DiffFrom(stats.Collect(base.Clone())); d != "" {
		t.Fatalf("identical databases reported divergent: %s", d)
	}
	for _, tc := range cases {
		if d := st.DiffFrom(stats.Collect(tc.other)); d == "" {
			t.Errorf("%s: DiffFrom reported agreement", tc.name)
		}
	}
	// Extra relation on the other side is also a divergence.
	if d := st.DiffFrom(stats.Collect(mk([]string{"p", "a", "b"}, []string{"p", "c", "d"}, []string{"q", "z"}))); d == "" {
		t.Error("extra relation: DiffFrom reported agreement")
	}
}

// TestWithRows: the estimate copy-with-actual used to feed Order.
func TestWithRows(t *testing.T) {
	db := relation.NewDatabase()
	db.MustInsertNamed("p", "a", "b")
	db.MustInsertNamed("p", "c", "b")
	st := stats.Collect(db)
	est := st.AtomEst(relation.Atom{Pred: "p", Terms: []relation.Term{relation.V("X"), relation.V("Y")}})
	got := est.WithRows(7)
	if got.Rows != 7 {
		t.Fatalf("WithRows gave %v rows", got.Rows)
	}
	if est.Rows == 7 {
		t.Fatal("WithRows mutated the receiver")
	}
	if got.DistinctOf("X") != est.DistinctOf("X") {
		t.Error("WithRows changed the distinct estimates")
	}
	if got.DistinctOf("missing") != got.Rows {
		t.Error("DistinctOf for an unknown column must fall back to Rows")
	}
}
