package core

import (
	"testing"

	"github.com/mqgo/metaquery/internal/relation"
	"github.com/mqgo/metaquery/internal/stats"
)

// epochTestDB builds a small database with two binary relations and one
// unary relation, the minimal schema for exercising arity buckets.
func epochTestDB() *relation.Database {
	db := relation.NewDatabase()
	db.MustInsertNamed("p", "a", "b")
	db.MustInsertNamed("p", "b", "c")
	db.MustInsertNamed("q", "b", "c")
	db.MustInsertNamed("u", "a")
	return db
}

// TestCandidateIndexExtend covers the epoch path of the candidate index:
// tuple-only deltas carry every memoized candidate list to the new
// version, while schema changes invalidate exactly the buckets they touch
// (their own arity for type-0/1, every arity at or above for type-2).
func TestCandidateIndexExtend(t *testing.T) {
	db := epochTestDB()
	ix := NewCandidateIndex(db)
	if ix.Database() != db {
		t.Fatal("Database accessor mismatch")
	}
	if got := ix.RelationsOfArity(2); len(got) != 2 {
		t.Fatalf("RelationsOfArity(2) = %v", got)
	}

	scheme := LiteralScheme{Pred: "R", PredVar: true, Args: []string{"X", "Y"}}
	base := ix.Candidates(scheme, Type0, 0)
	if len(base) != 2 {
		t.Fatalf("binary candidates %v", base)
	}

	// Tuple-only new version: same schema, memo carried over — Extend's
	// candidate list for the same scheme must agree without a rescan.
	db2 := db.Clone()
	db2.MustInsertNamed("p", "x", "y")
	ix2 := ix.Extend(db2)
	if ix2.Database() != db2 {
		t.Fatal("extended index bound to the wrong database")
	}
	if got := ix2.Candidates(scheme, Type0, 0); len(got) != len(base) {
		t.Fatalf("tuple-only extend changed candidates: %v vs %v", got, base)
	}

	// Schema change: a new binary relation must invalidate the arity-2
	// bucket — the new candidate list sees three relations.
	db3 := db2.Clone()
	db3.MustInsertNamed("r", "m", "n")
	ix3 := ix2.Extend(db3)
	if got := ix3.Candidates(scheme, Type0, 0); len(got) != 3 {
		t.Fatalf("schema extend candidates %v, want 3 relations", got)
	}
	if got := ix3.RelationsOfArity(2); len(got) != 3 {
		t.Fatalf("RelationsOfArity(2) after extend = %v", got)
	}

	// Type-2 memo entries draw from every arity >= their own, so adding a
	// binary relation also invalidates a memoized unary type-2 scheme.
	uscheme := LiteralScheme{Pred: "S", PredVar: true, Args: []string{"X"}}
	t2 := ix3.Candidates(uscheme, Type2, 0)
	db4 := db3.Clone()
	db4.MustInsertNamed("s", "q", "r")
	ix4 := ix3.Extend(db4)
	if got := ix4.Candidates(uscheme, Type2, 0); len(got) <= len(t2) {
		t.Fatalf("type-2 candidates %d after adding a binary relation, had %d", len(got), len(t2))
	}
	// The old index is untouched throughout.
	if got := ix.Candidates(scheme, Type0, 0); len(got) != 2 {
		t.Fatalf("old-epoch index changed: %v", got)
	}
}

// TestEvaluatorFork covers the epoch path of the evaluator: cached atom
// tables and estimates survive a fork exactly when their relation is
// pointer-identical between database versions, and the fork serves the
// new version's data for the relations that changed.
func TestEvaluatorFork(t *testing.T) {
	db := epochTestDB()
	st := stats.Collect(db)
	ev := NewEvaluatorStats(db, st)
	if ev.Database() != db || ev.Stats() != st {
		t.Fatal("accessor mismatch")
	}

	pAtom := relation.Atom{Pred: "p", Terms: []relation.Term{relation.V("X"), relation.V("Y")}}
	qAtom := relation.Atom{Pred: "q", Terms: []relation.Term{relation.V("Y"), relation.V("Z")}}
	pt, err := ev.TableFor(pAtom)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.TableFor(qAtom); err != nil {
		t.Fatal(err)
	}
	ev.AtomEst(pAtom) // populate the estimate cache too

	// Build the new version the way Apply does: share unchanged relation
	// pointers, extend the changed one.
	q2 := db.Relation("q").Extend()
	q2.Insert(relation.Tuple{db.Dict().Intern("zz"), db.Dict().Intern("ww")})
	db2 := db.Extend(map[string]*relation.Relation{"q": q2})

	st2 := st.WithDelta(db2, []stats.RelationChange{{Name: "q", Added: []relation.Tuple{q2.Row(q2.Len() - 1)}}})
	ev2 := ev.Fork(db2, st2)
	if ev2.Database() != db2 || ev2.Stats() != st2 {
		t.Fatal("fork accessor mismatch")
	}

	// The unchanged relation's cached table is carried over by pointer.
	pt2, err := ev2.TableFor(pAtom)
	if err != nil {
		t.Fatal(err)
	}
	if pt2 != pt {
		t.Error("fork rebuilt the cached table of an unchanged relation")
	}
	// The changed relation is served from the new version.
	qt2, err := ev2.TableFor(qAtom)
	if err != nil {
		t.Fatal(err)
	}
	if qt2.Len() != 2 {
		t.Fatalf("forked q table has %d rows, want 2", qt2.Len())
	}
	// The old evaluator still sees the old data.
	qt, err := ev.TableFor(qAtom)
	if err != nil {
		t.Fatal(err)
	}
	if qt.Len() != 1 {
		t.Fatalf("old-epoch q table has %d rows, want 1", qt.Len())
	}

	// The forked evaluator joins like a fresh statistics-free one over the
	// same database version.
	atoms := []relation.Atom{pAtom, qAtom}
	jo, err := ev2.Join(atoms)
	if err != nil {
		t.Fatal(err)
	}
	jg, err := NewEvaluator(ev2.Database()).Join(atoms)
	if err != nil {
		t.Fatal(err)
	}
	if jg.Len() != jo.Len() {
		t.Fatalf("fresh evaluator Join %d rows vs forked Join %d", jg.Len(), jo.Len())
	}
}
