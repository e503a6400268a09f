package metaquery

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/mqgo/metaquery/internal/core"
)

// TestPublicEngineFlow exercises the session API end to end: one Engine,
// one Prepared metaquery, repeated and streamed executions.
func TestPublicEngineFlow(t *testing.T) {
	db := speaksDB()
	mq := MustParse("R(X,Z) <- P(X,Y), Q(Y,Z)")
	eng := NewEngine(db)
	prep, err := eng.Prepare(mq, Options{
		Type:       Type0,
		Thresholds: AllAbove(MustRat("0.5"), MustRat("0.9"), MustRat("0")),
	})
	if err != nil {
		t.Fatal(err)
	}

	want, err := FindRules(db, mq, prep.Options())
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 2; run++ {
		got, err := prep.FindRules(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("run %d: %d answers, want %d", run, len(got), len(want))
		}
		for i := range got {
			if got[i].Rule.String() != want[i].Rule.String() {
				t.Errorf("run %d: answer %d differs", run, i)
			}
		}
	}

	streamed := 0
	for a, err := range prep.Stream(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
		if a.Rule.String() == "" {
			t.Error("streamed an empty rule")
		}
		streamed++
	}
	if streamed != len(want) {
		t.Errorf("streamed %d answers, want %d", streamed, len(want))
	}
}

// TestPublicDecideFirst exercises the first-witness decision wrappers:
// agreement with the naive decider and a valid witness on YES.
func TestPublicDecideFirst(t *testing.T) {
	db := speaksDB()
	mq := MustParse("R(X,Z) <- P(X,Y), Q(Y,Z)")
	for _, ix := range []Index{Sup, Cnf, Cvr} {
		for _, k := range []Rat{MustRat("0"), MustRat("1")} {
			wantYes, _, err := core.Decide(db, mq, ix, k, Type0)
			if err != nil {
				t.Fatal(err)
			}
			yes, wit, err := DecideFirstContext(context.Background(), db, mq, ix, k, Type0)
			if err != nil {
				t.Fatal(err)
			}
			if yes != wantYes {
				t.Errorf("%s > %s: DecideFirstContext %v, core.Decide %v", ix, k, yes, wantYes)
			}
			if yes {
				checkWitness(t, db, mq, wit, ix, k)
			}
		}
	}
}

// TestPublicDecideParallel checks the engine-backed parallel wrapper at the
// GOMAXPROCS default, sequential and sharded worker counts: verdicts match
// the naive decider and every YES carries a witness that beats k. The
// metaqueries without relation patterns or without candidates have nothing
// to shard and must fall back to the sequential search.
func TestPublicDecideParallel(t *testing.T) {
	unary := NewDatabase()
	unary.MustInsertNamed("p", "a")
	cases := []struct {
		db *Database
		mq string
	}{
		{speaksDB(), "R(X,Z) <- P(X,Y), Q(Y,Z)"},
		{speaksDB(), "speaks(X,Z) <- citizen(X,Y), language(Y,Z)"},
		{unary, "R(X,Y,Z) <- p(X), P(X,Y,Z)"},
	}
	for _, c := range cases {
		mq := MustParse(c.mq)
		for _, workers := range []int{0, 1, 4} {
			for _, typ := range []InstType{Type0, Type1} {
				for _, ix := range []Index{Sup, Cnf, Cvr} {
					for _, k := range []Rat{MustRat("0"), MustRat("1/2"), MustRat("1")} {
						wantYes, _, err := core.Decide(c.db, mq, ix, k, typ)
						if err != nil {
							t.Fatal(err)
						}
						yes, wit, err := DecideParallel(c.db, mq, ix, k, typ, workers)
						if err != nil {
							t.Fatal(err)
						}
						if yes != wantYes {
							t.Errorf("%s workers=%d %s %s > %s: DecideParallel %v, core.Decide %v", c.mq, workers, typ, ix, k, yes, wantYes)
						}
						if yes {
							checkWitness(t, c.db, mq, wit, ix, k)
						}
					}
				}
			}
		}
	}
}

// checkWitness asserts that wit instantiates mq to a rule whose ix value
// over db exceeds k.
func checkWitness(t *testing.T, db *Database, mq *Metaquery, wit *Instantiation, ix Index, k Rat) {
	t.Helper()
	if wit == nil {
		t.Fatalf("%s > %s: YES without a witness", ix, k)
	}
	rule, err := wit.Apply(mq)
	if err != nil {
		t.Fatalf("witness does not instantiate: %v", err)
	}
	v, err := ix.Compute(db, rule)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Greater(k) {
		t.Errorf("witness %s has %s = %s, not > %s", rule, ix, v, k)
	}
}

func TestPublicContextVariantsCancelled(t *testing.T) {
	db := speaksDB()
	mq := MustParse("R(X,Z) <- P(X,Y), Q(Y,Z)")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := FindRulesContext(ctx, db, mq, Options{Type: Type0}); !errors.Is(err, context.Canceled) {
		t.Errorf("FindRulesContext: err = %v, want context.Canceled", err)
	}
	if _, _, err := FindRulesStatsContext(ctx, db, mq, Options{Type: Type0}); !errors.Is(err, context.Canceled) {
		t.Errorf("FindRulesStatsContext: err = %v, want context.Canceled", err)
	}
	if _, err := NaiveFindRulesContext(ctx, db, mq, Type0, Thresholds{}); !errors.Is(err, context.Canceled) {
		t.Errorf("NaiveFindRulesContext: err = %v, want context.Canceled", err)
	}
	if _, _, err := DecideContext(ctx, db, mq, Cnf, MustRat("2"), Type0); !errors.Is(err, context.Canceled) {
		t.Errorf("DecideContext: err = %v, want context.Canceled", err)
	}
	if _, _, err := DecideParallelContext(ctx, db, mq, Cnf, MustRat("2"), Type0, 2); !errors.Is(err, context.Canceled) {
		t.Errorf("DecideParallelContext: err = %v, want context.Canceled", err)
	}
}

func TestPublicStreamEarlyExitCheapness(t *testing.T) {
	db := speaksDB()
	mq := MustParse("R(X,Z) <- P(X,Y), Q(Y,Z)")
	eng := NewEngine(db)

	_, fullStats, err := FindRulesStats(db, mq, Options{Type: Type1})
	if err != nil {
		t.Fatal(err)
	}

	prep, err := eng.Prepare(mq, Options{Type: Type1})
	if err != nil {
		t.Fatal(err)
	}
	var early Stats
	for _, err := range prep.StreamStats(context.Background(), &early) {
		if err != nil {
			t.Fatal(err)
		}
		break
	}
	if early.HeadsTried+early.BodyCandidatesTried >= fullStats.HeadsTried+fullStats.BodyCandidatesTried {
		t.Errorf("early exit work (%d heads, %d candidates) not less than full run (%d heads, %d candidates)",
			early.HeadsTried, early.BodyCandidatesTried, fullStats.HeadsTried, fullStats.BodyCandidatesTried)
	}
}

func TestPublicEngineConcurrentUse(t *testing.T) {
	db := speaksDB()
	mq := MustParse("R(X,Z) <- P(X,Y), Q(Y,Z)")
	eng := NewEngine(db)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			typ := InstType(g % 3)
			if _, err := eng.FindRules(context.Background(), mq, Options{Type: typ}); err != nil {
				t.Errorf("goroutine %d: %v", g, err)
			}
		}(g)
	}
	wg.Wait()
}

func TestPublicDeadlineStopsSearch(t *testing.T) {
	// A quick sanity check at the facade level; the heavyweight promptness
	// tests live in internal/engine.
	db := speaksDB()
	mq := MustParse("R(X,Z) <- P(X,Y), Q(Y,Z)")
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := FindRulesContext(ctx, db, mq, Options{Type: Type2}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}
