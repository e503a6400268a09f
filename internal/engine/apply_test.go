package engine

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"github.com/mqgo/metaquery/internal/core"
	"github.com/mqgo/metaquery/internal/gen"
	"github.com/mqgo/metaquery/internal/obs"
	"github.com/mqgo/metaquery/internal/rat"
	"github.com/mqgo/metaquery/internal/relation"
	"github.com/mqgo/metaquery/internal/stats"
	"github.com/mqgo/metaquery/internal/workload"
)

// tupleStrings converts a stored tuple back to its constant names — the
// wire form Delta speaks.
func tupleStrings(db *relation.Database, t relation.Tuple) []string {
	row := make([]string, len(t))
	for i, v := range t {
		row[i] = db.Dict().Name(v)
	}
	return row
}

// applyAndCompare applies d and checks every execution path — sequential
// FindRules, parallel FindRules, sequential and parallel Stream, the
// incremental statistics — against a from-scratch engine on a clone of the
// post-delta database.
func applyAndCompare(t *testing.T, eng *Engine, mq *core.Metaquery, opt Options, d Delta) {
	t.Helper()
	ctx := context.Background()
	before := eng.Epoch()
	if _, err := eng.Apply(ctx, d); err != nil {
		t.Fatalf("apply: %v", err)
	}
	if eng.Epoch() == before {
		// Effect-free deltas are exercised elsewhere; the comparison below
		// still holds, so keep going.
		t.Logf("delta had no effect (epoch still %d)", before)
	}

	fresh := NewEngine(eng.Database().Clone())
	want, err := fresh.FindRules(ctx, mq, opt)
	if err != nil {
		t.Fatalf("fresh engine: %v", err)
	}
	wantSet := answerMultiset(want)

	got, err := eng.FindRules(ctx, mq, opt)
	if err != nil {
		t.Fatalf("incremental engine: %v", err)
	}
	if !sameMultiset(answerMultiset(got), wantSet) {
		t.Fatalf("incremental FindRules has %d answers, fresh rebuild %d", len(got), len(want))
	}

	popt := opt
	popt.Workers = 3
	prep, err := eng.Prepare(mq, popt)
	if err != nil {
		t.Fatal(err)
	}
	var streamed []core.Answer
	for a, serr := range prep.Stream(ctx) {
		if serr != nil {
			t.Fatalf("parallel stream after apply: %v", serr)
		}
		streamed = append(streamed, a)
	}
	if !sameMultiset(answerMultiset(streamed), wantSet) {
		t.Fatalf("parallel stream after apply has %d answers, fresh rebuild %d", len(streamed), len(want))
	}

	if diff := eng.Statistics().DiffFrom(fresh.Statistics()); diff != "" {
		t.Fatalf("incremental statistics diverge from exact recollection:\n%s", diff)
	}
}

// TestApplyMatchesRebuild runs hand-written deltas — deletes of existing
// tuples, inserts of fresh and of domain constants — over generated
// scenarios and checks every path against a fresh engine.
func TestApplyMatchesRebuild(t *testing.T) {
	for _, shape := range []string{"t0-chain", "t1-cycle", "t2-pad"} {
		for seed := int64(0); seed < 2; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", shape, seed), func(t *testing.T) {
				s, err := gen.NewScenario(seed, shape)
				if err != nil {
					t.Fatal(err)
				}
				eng := NewEngine(s.DB)
				opt := Options{Type: s.Type, Thresholds: s.Th}
				rng := rand.New(rand.NewSource(seed + 99))
				for step := 0; step < 3; step++ {
					db := eng.Database()
					var d Delta
					for _, name := range db.RelationNames() {
						if rng.Intn(2) == 0 {
							continue
						}
						r := db.Relation(name)
						rd := RelationDelta{Name: name}
						tuples := r.Tuples()
						for i := 0; i < 2 && len(tuples) > 0; i++ {
							rd.Delete = append(rd.Delete, tupleStrings(db, tuples[rng.Intn(len(tuples))]))
						}
						for i := 0; i < 3; i++ {
							row := make([]string, r.Arity())
							for j := range row {
								if rng.Intn(2) == 0 && len(tuples) > 0 {
									row[j] = tupleStrings(db, tuples[rng.Intn(len(tuples))])[rng.Intn(r.Arity())]
								} else {
									row[j] = fmt.Sprintf("fresh_%d_%d_%d", step, i, j)
								}
							}
							rd.Insert = append(rd.Insert, row)
						}
						d.Relations = append(d.Relations, rd)
					}
					if len(d.Relations) == 0 {
						continue
					}
					applyAndCompare(t, eng, s.MQ, opt, d)
				}
			})
		}
	}
}

// TestApplyDeleteToEmpty deletes every tuple of a relation the metaquery
// joins through: the relation survives with zero rows, searches return the
// accordingly reduced answer set, and re-populating it works.
func TestApplyDeleteToEmpty(t *testing.T) {
	db := workload.ChainDB(3, 6, 18, 5)
	mq := workload.ChainMQ(3)
	eng := NewEngine(db)
	ctx := context.Background()

	var wipe Delta
	rd := RelationDelta{Name: "r1"}
	for _, tup := range db.Relation("r1").Tuples() {
		rd.Delete = append(rd.Delete, tupleStrings(db, tup))
	}
	wipe.Relations = []RelationDelta{rd}
	applyAndCompare(t, eng, mq, Options{Type: core.Type0}, wipe)

	r1 := eng.Database().Relation("r1")
	if r1 == nil || r1.Len() != 0 {
		t.Fatalf("r1 after wipe: %v (want present, empty)", r1)
	}
	// Patterns can bind any binary relation, so answers survive (with
	// support 0 through r1); correctness against the fresh rebuild is what
	// applyAndCompare pinned above. The emptied relation must still join.
	if _, err := eng.FindRules(ctx, mq, Options{Type: core.Type0}); err != nil {
		t.Fatal(err)
	}

	refill := Delta{Relations: []RelationDelta{{Name: "r1", Insert: [][]string{{"n1_0", "n2_0"}, {"n1_1", "n2_1"}}}}}
	applyAndCompare(t, eng, mq, Options{Type: core.Type0}, refill)
	if got := eng.Database().Relation("r1").Len(); got != 2 {
		t.Fatalf("r1 after refill has %d rows, want 2", got)
	}
}

// TestApplyTombstoneReinsert pins the resurrect path: deleting a tuple and
// re-inserting it — in a later Apply and within one RelationDelta (deletes
// first) — leaves it present exactly once.
func TestApplyTombstoneReinsert(t *testing.T) {
	db := relation.NewDatabase()
	db.MustInsertNamed("p", "a", "b")
	db.MustInsertNamed("p", "c", "d")
	eng := NewEngine(db)
	ctx := context.Background()

	if _, err := eng.Apply(ctx, Delta{Relations: []RelationDelta{{Name: "p", Delete: [][]string{{"a", "b"}}}}}); err != nil {
		t.Fatal(err)
	}
	if got := eng.Database().Relation("p").Len(); got != 1 {
		t.Fatalf("after delete: %d rows, want 1", got)
	}
	res, err := eng.Apply(ctx, Delta{Relations: []RelationDelta{{Name: "p", Insert: [][]string{{"a", "b"}}}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inserted != 1 {
		t.Fatalf("re-insert of tombstoned tuple reported %d inserts, want 1", res.Inserted)
	}
	p := eng.Database().Relation("p")
	if p.Len() != 2 {
		t.Fatalf("after re-insert: %d rows, want 2", p.Len())
	}
	seen := 0
	for _, tup := range p.Tuples() {
		row := tupleStrings(eng.Database(), tup)
		if row[0] == "a" && row[1] == "b" {
			seen++
		}
	}
	if seen != 1 {
		t.Fatalf("tuple (a,b) present %d times after resurrect, want exactly once", seen)
	}

	// Delete+insert of the same tuple within ONE RelationDelta: deletes
	// apply first, so the pair is a net no-op on membership but both legs
	// count as effective.
	res, err = eng.Apply(ctx, Delta{Relations: []RelationDelta{{
		Name:   "p",
		Delete: [][]string{{"c", "d"}},
		Insert: [][]string{{"c", "d"}},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deleted != 1 || res.Inserted != 1 {
		t.Fatalf("same-batch delete+insert reported %d/%d, want 1/1", res.Deleted, res.Inserted)
	}
	if got := eng.Database().Relation("p").Len(); got != 2 {
		t.Fatalf("after same-batch delete+insert: %d rows, want 2", got)
	}
	if diff := eng.Statistics().DiffFrom(stats.Collect(eng.Database())); diff != "" {
		t.Fatalf("statistics after resurrect diverge:\n%s", diff)
	}
}

// TestApplyUnmentionedRelation changes a relation no metaquery pattern can
// unify with arity-wise: prepared results are unaffected, but the epoch
// still advances and the new data is queryable.
func TestApplyUnmentionedRelation(t *testing.T) {
	db := workload.ChainDB(2, 5, 12, 3)
	db.MustInsertNamed("side", "a", "b", "c") // arity 3: no binary pattern matches
	mq := workload.ChainMQ(2)
	eng := NewEngine(db)
	ctx := context.Background()
	prep, err := eng.Prepare(mq, Options{Type: core.Type0})
	if err != nil {
		t.Fatal(err)
	}
	before, err := prep.FindRules(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if prep.Engine() != eng || prep.Metaquery() != mq {
		t.Fatal("Prepared accessor identity mismatch")
	}
	if prep.Options().Type != core.Type0 {
		t.Fatalf("Options round-trip %+v", prep.Options())
	}
	if prep.Width() < 1 {
		t.Fatalf("Width() = %d", prep.Width())
	}
	e0 := eng.Epoch()

	d := Delta{Relations: []RelationDelta{{Name: "side", Insert: [][]string{{"x", "y", "z"}}, Delete: [][]string{{"a", "b", "c"}}}}}
	applyAndCompare(t, eng, mq, Options{Type: core.Type0}, d)
	if eng.Epoch() != e0+1 {
		t.Fatalf("epoch %d after delta, want %d", eng.Epoch(), e0+1)
	}
	after, err := prep.FindRules(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !sameMultiset(answerMultiset(before), answerMultiset(after)) {
		t.Fatalf("delta on an unmentioned relation changed the answers: %d vs %d", len(before), len(after))
	}

	// The one-shot decision wrapper sees the same (post-delta) database.
	yes, wit, err := NewEngine(eng.Database()).Decide(ctx, mq, core.Sup, rat.Zero, core.Type0)
	if err != nil {
		t.Fatal(err)
	}
	if yes != (len(after) > 0) {
		t.Fatalf("DecideFirst sup>0 = %v with %d answers", yes, len(after))
	}
	if yes && wit == nil {
		t.Fatal("YES decision without a witness")
	}
}

// TestApplyNewRelation creates a relation via delta: the candidate index of
// the new epoch must offer it to pattern schemes, growing the answer set.
func TestApplyNewRelation(t *testing.T) {
	db := workload.ChainDB(2, 5, 15, 7)
	mq := workload.ChainMQ(2)
	eng := NewEngine(db)
	ctx := context.Background()
	prep, err := eng.Prepare(mq, Options{Type: core.Type0})
	if err != nil {
		t.Fatal(err)
	}
	before, err := prep.FindRules(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// A copy of r0 under a new name: every body using r0 now has a twin.
	rd := RelationDelta{Name: "rnew"}
	for _, tup := range db.Relation("r0").Tuples() {
		rd.Insert = append(rd.Insert, tupleStrings(db, tup))
	}
	applyAndCompare(t, eng, mq, Options{Type: core.Type0}, Delta{Relations: []RelationDelta{rd}})

	after, err := prep.FindRules(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) <= len(before) {
		t.Fatalf("new relation invisible to candidates: %d answers before, %d after", len(before), len(after))
	}

	// Creating an empty relation (explicit arity, no inserts) is still a
	// schema change: the epoch advances.
	e := eng.Epoch()
	if _, err := eng.Apply(ctx, Delta{Relations: []RelationDelta{{Name: "empty", Arity: 2}}}); err != nil {
		t.Fatal(err)
	}
	if eng.Epoch() != e+1 {
		t.Fatalf("creating an empty relation did not advance the epoch")
	}
	if r := eng.Database().Relation("empty"); r == nil || r.Len() != 0 || r.Arity() != 2 {
		t.Fatalf("empty relation not created correctly: %v", r)
	}
}

// TestApplyNoopAndValidation pins the atomicity contract: an effect-free
// delta keeps the epoch, and a delta failing validation leaves the engine
// byte-for-byte on its previous snapshot.
func TestApplyNoopAndValidation(t *testing.T) {
	db := relation.NewDatabase()
	db.MustInsertNamed("p", "a", "b")
	eng := NewEngine(db)
	ctx := context.Background()
	snap0 := eng.snap.Load()

	res, err := eng.Apply(ctx, Delta{Relations: []RelationDelta{{
		Name:   "p",
		Insert: [][]string{{"a", "b"}},     // already present
		Delete: [][]string{{"nope", "no"}}, // never interned
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inserted != 0 || res.Deleted != 0 || res.Epoch != 0 {
		t.Fatalf("no-op delta reported %+v", res)
	}
	if eng.snap.Load() != snap0 {
		t.Fatal("no-op delta replaced the snapshot")
	}

	for name, bad := range map[string]Delta{
		"arity mismatch":        {Relations: []RelationDelta{{Name: "p", Insert: [][]string{{"x"}}}}},
		"declared arity wrong":  {Relations: []RelationDelta{{Name: "p", Arity: 3, Insert: [][]string{{"x", "y", "z"}}}}},
		"unknown without arity": {Relations: []RelationDelta{{Name: "q", Delete: [][]string{{"x", "y"}}}}},
		"mixed tuple lengths":   {Relations: []RelationDelta{{Name: "q2", Insert: [][]string{{"x", "y"}, {"z"}}}}},
	} {
		if _, err := eng.Apply(ctx, bad); err == nil {
			t.Errorf("%s: Apply accepted an invalid delta", name)
		}
		if eng.snap.Load() != snap0 {
			t.Fatalf("%s: failed Apply mutated the engine", name)
		}
	}

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := eng.Apply(cancelled, Delta{Relations: []RelationDelta{{Name: "p", Insert: [][]string{{"c", "d"}}}}}); err == nil {
		t.Error("Apply ignored a cancelled context")
	}
	if eng.snap.Load() != snap0 {
		t.Fatal("cancelled Apply mutated the engine")
	}
}

// TestApplyRacingStream races Apply against an in-flight parallel Stream
// (run under -race in CI): the stream pins the epoch it started on, so its
// answer multiset must exactly match one of the two database versions —
// never a mix.
func TestApplyRacingStream(t *testing.T) {
	// Type1 cyclic scenario: answers carry data-dependent index values, so
	// a delta observably moves the answer multiset.
	rng := rand.New(rand.NewSource(21))
	db := gen.DBConfig{Relations: 3, MinArity: 2, MaxArity: 2, MinTuples: 60, MaxTuples: 60, Domain: 8}.Generate(rng)
	mq, err := gen.MQConfig{BodyPatterns: 3, PatternArity: 2, Cyclic: true}.Generate(rng, db)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	setA := answerMultiset(mustFind(t, NewEngine(db.Clone()), mq))
	// Delete a third of r1 and add an edge through a brand-new constant:
	// guaranteed to move the index values of rules joining through r1.
	rd := RelationDelta{Name: "r1", Insert: [][]string{{"d0", "bridge"}}}
	for i, tup := range db.Relation("r1").Tuples() {
		if i%3 == 0 {
			rd.Delete = append(rd.Delete, tupleStrings(db, tup))
		}
	}
	d := Delta{Relations: []RelationDelta{rd}}
	dbB := db.Clone()
	applyDeltaToClone(t, dbB, d)
	setB := answerMultiset(mustFind(t, NewEngine(dbB), mq))
	if sameMultiset(setA, setB) {
		t.Fatal("test delta does not change the answer set; race is unobservable")
	}

	for round := 0; round < 4; round++ {
		reng := NewEngine(db.Clone())
		prep, err := reng.Prepare(mq, Options{Type: core.Type1, Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		applied := make(chan struct{})
		var got []core.Answer
		n := 0
		for a, serr := range prep.Stream(ctx) {
			if serr != nil {
				t.Fatalf("stream during apply: %v", serr)
			}
			got = append(got, a)
			n++
			if n == 1 {
				go func() {
					defer close(applied)
					if _, err := reng.Apply(ctx, d); err != nil {
						t.Errorf("apply during stream: %v", err)
					}
				}()
			}
		}
		<-applied
		gotSet := answerMultiset(got)
		if !sameMultiset(gotSet, setA) && !sameMultiset(gotSet, setB) {
			t.Fatalf("round %d: streamed multiset (%d answers) matches neither epoch (%d / %d)",
				round, len(got), len(setA), len(setB))
		}
		// A fresh execution after Apply returned must see epoch B.
		if after := answerMultiset(mustFind(t, reng, mq)); !sameMultiset(after, setB) {
			t.Fatalf("round %d: post-apply execution does not see the new epoch", round)
		}
	}
}

// TestApplyEpochCoherence hammers one engine with concurrent Applies,
// FindRules, DecideFirst and snapshot reads (run under -race in CI); the
// newSnapshot invariant panics if any published epoch ever mixes database
// versions, and every loaded snapshot must be internally consistent.
func TestApplyEpochCoherence(t *testing.T) {
	db := workload.ChainDB(2, 6, 20, 13)
	mq := workload.ChainMQ(2)
	eng := NewEngine(db)
	ctx := context.Background()
	prep, err := eng.Prepare(mq, Options{Type: core.Type0})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := prep.FindRules(ctx); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				s := eng.snap.Load()
				if s.cands.Database() != s.db || s.ev.Database() != s.db || s.st.Database() != s.db {
					t.Errorf("worker %d: snapshot %d mixes database versions", w, s.epoch)
					return
				}
			}
		}(w)
	}
	for i := 0; i < 25; i++ {
		d := Delta{Relations: []RelationDelta{{
			Name:   "r0",
			Insert: [][]string{{fmt.Sprintf("n0_%d", i%6), fmt.Sprintf("n1_%d", (i+1)%6)}},
			Delete: [][]string{{fmt.Sprintf("n0_%d", (i+3)%6), fmt.Sprintf("n1_%d", i%6)}},
		}}}
		if _, err := eng.Apply(ctx, d); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	if diff := eng.Statistics().DiffFrom(stats.Collect(eng.Database())); diff != "" {
		t.Fatalf("statistics after 25 racing applies diverge:\n%s", diff)
	}
}

// TestSnapshotRequiresStatistics pins the publication invariant that every
// snapshot carries statistics: a stats-less snapshot panics at construction
// instead of failing deep inside a search.
func TestSnapshotRequiresStatistics(t *testing.T) {
	db := workload.ChainDB(2, 6, 20, 13)
	defer func() {
		if recover() == nil {
			t.Fatal("newSnapshot accepted a snapshot without statistics")
		}
	}()
	newSnapshot(0, db, core.NewCandidateIndex(db), nil, core.NewEvaluator(db))
}

func mustFind(t *testing.T, eng *Engine, mq *core.Metaquery) []core.Answer {
	t.Helper()
	as, err := eng.FindRules(context.Background(), mq, Options{Type: core.Type1})
	if err != nil {
		t.Fatal(err)
	}
	return as
}

// applyDeltaToClone mirrors a Delta onto a plain database — the oracle the
// racing test compares both epochs against.
func applyDeltaToClone(t *testing.T, db *relation.Database, d Delta) {
	t.Helper()
	for _, rd := range d.Relations {
		r := db.Relation(rd.Name)
		for _, row := range rd.Delete {
			if tup, ok := lookupTuple(db.Dict(), row); ok {
				r.Delete(tup)
			}
		}
		for _, row := range rd.Insert {
			db.MustInsertNamed(rd.Name, row...)
		}
	}
}

// BenchmarkParallelStream guards the merge loop's per-answer cost (the
// st.Answers publication moved out of the mutex): one iteration consumes a
// full 4-worker stream.
func BenchmarkParallelStream(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	db := gen.DBConfig{Relations: 3, MinArity: 2, MaxArity: 2, MinTuples: 80, MaxTuples: 80, Domain: 9}.Generate(rng)
	mq, err := gen.MQConfig{BodyPatterns: 3, PatternArity: 2, Cyclic: true}.Generate(rng, db)
	if err != nil {
		b.Fatal(err)
	}
	prep, err := NewEngine(db).Prepare(mq, Options{Type: core.Type1, Workers: 4})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		var st Stats
		for _, serr := range prep.StreamStats(ctx, &st) {
			if serr != nil {
				b.Fatal(serr)
			}
			n++
		}
		if st.Answers != n {
			b.Fatalf("stats report %d answers, consumer saw %d", st.Answers, n)
		}
	}
}

// TestApplyKeepsUntouchedNodeJoins checks which cached node joins survive
// an Apply: after a delta on r1, a traced re-execution hits the cache on
// every node join that reads only other relations and misses exactly on
// the ones that read r1.
func TestApplyKeepsUntouchedNodeJoins(t *testing.T) {
	eng := NewEngine(workload.ChainDB(3, 5, 12, 3))
	mq := core.MustParse("R(X,W) <- r0(X,Y), r1(Y,Z), r2(Z,W)")
	prep, err := eng.Prepare(mq, Options{Type: core.Type0})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := prep.FindRules(ctx); err != nil {
		t.Fatal(err)
	}
	d := Delta{Relations: []RelationDelta{{Name: "r1", Insert: [][]string{{"fresh_a", "fresh_b"}}}}}
	if _, err := eng.Apply(ctx, d); err != nil {
		t.Fatal(err)
	}

	tr := obs.NewTracer()
	if _, _, err := prep.FindRulesStats(obs.WithTracer(ctx, tr)); err != nil {
		t.Fatal(err)
	}
	hits, misses := 0, 0
	for _, j := range spansNamed(tr.Tree(), "node-join") {
		id, err := strconv.Atoi(j.Attrs["node"])
		if err != nil {
			t.Fatalf("node-join without a node id: %v", j.Attrs)
		}
		readsR1 := false
		for _, s := range prep.nodeSchemes[id] {
			readsR1 = readsR1 || prep.schemes[s].scheme.Atom().Pred == "r1"
		}
		want := "hit"
		if readsR1 {
			want = "miss"
		}
		if j.Attrs["cache"] != want {
			t.Errorf("node %d (reads r1: %v): cache=%s, want %s", id, readsR1, j.Attrs["cache"], want)
		}
		if want == "hit" {
			hits++
		} else {
			misses++
		}
	}
	if hits == 0 || misses == 0 {
		t.Fatalf("traced run after Apply: %d hits, %d misses — want both", hits, misses)
	}
}
