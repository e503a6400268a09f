package engine

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"github.com/mqgo/metaquery/internal/core"
	"github.com/mqgo/metaquery/internal/gen"
	"github.com/mqgo/metaquery/internal/rat"
	"github.com/mqgo/metaquery/internal/relation"
)

// decideAll runs DecideFirst for one index/bound over a fresh Prepared.
func decideAll(t *testing.T, db *relation.Database, mq *core.Metaquery, typ core.InstType, ix core.Index, k rat.Rat) (bool, *core.Instantiation, *Stats) {
	t.Helper()
	p, err := NewEngine(db).Prepare(mq, Options{Type: typ})
	if err != nil {
		t.Fatal(err)
	}
	yes, wit, st, err := p.DecideFirstStats(context.Background(), ix, k)
	if err != nil {
		t.Fatal(err)
	}
	return yes, wit, st
}

// An empty database (schemas but no tuples) is a NO for every index and
// bound: there are candidate instantiations, but every index is zero.
func TestDecideFirstEmptyDatabase(t *testing.T) {
	db := relation.NewDatabase()
	db.MustAddRelation("p", 2)
	db.MustAddRelation("q", 2)
	mq := core.MustParse("R(X,Z) <- P(X,Y), Q(Y,Z)")
	for _, ix := range core.AllIndices {
		yes, wit, _ := decideAll(t, db, mq, core.Type0, ix, rat.Zero)
		if yes || wit != nil {
			t.Errorf("%s: empty database decided YES (witness %v)", ix, wit)
		}
	}
}

// A database with no relations at all has no candidates: NO, not an error.
func TestDecideFirstNoRelations(t *testing.T) {
	db := relation.NewDatabase()
	mq := core.MustParse("R(X,Z) <- P(X,Y)")
	yes, wit, _ := decideAll(t, db, mq, core.Type0, core.Sup, rat.Zero)
	if yes || wit != nil {
		t.Error("relation-less database decided YES")
	}
}

// Head-free metaqueries: the head's variable occurs nowhere in the body
// (cover joins become cartesian on that column). DecideFirst must agree
// with the sequential decider on all indices.
func TestDecideFirstHeadFreeVariable(t *testing.T) {
	db := relation.NewDatabase()
	db.MustInsertNamed("p", "a", "b")
	db.MustInsertNamed("p", "b", "c")
	db.MustInsertNamed("q", "a", "x")
	mq := core.MustParse("R(W,X) <- P(X,Y)")
	for _, ix := range core.AllIndices {
		for _, k := range []rat.Rat{rat.Zero, rat.New(1, 2), rat.New(1, 1)} {
			wantYes, _, err := core.Decide(db, mq, ix, k, core.Type0)
			if err != nil {
				t.Fatal(err)
			}
			yes, wit, _ := decideAll(t, db, mq, core.Type0, ix, k)
			if yes != wantYes {
				t.Errorf("%s > %s: DecideFirst %v, core.Decide %v", ix, k, yes, wantYes)
			}
			if yes && wit == nil {
				t.Errorf("%s > %s: YES without witness", ix, k)
			}
		}
	}
}

// k at the exact boundary: the comparison is strict, so deciding at the
// maximum attainable index value must answer NO, and at any value below
// it YES.
func TestDecideFirstExactBoundary(t *testing.T) {
	db := relation.NewDatabase()
	db.MustInsertNamed("p", "a", "b")
	db.MustInsertNamed("p", "c", "d")
	db.MustInsertNamed("q", "b", "e")
	mq := core.MustParse("R(X,Z) <- P(X,Y), Q(Y,Z)")
	// For P->p, Q->q: one of p's two tuples joins q, so sup = 1 (q's single
	// tuple participates fully).
	for _, c := range []struct {
		ix   core.Index
		max  rat.Rat
		want bool
	}{
		{core.Sup, rat.New(1, 1), false}, // sup max is exactly 1
		{core.Sup, rat.New(99, 100), true},
	} {
		yes, _, _ := decideAll(t, db, mq, core.Type0, c.ix, c.max)
		if yes != c.want {
			t.Errorf("%s > %s: got %v, want %v", c.ix, c.max, yes, c.want)
		}
	}
	// Boundary generically: derive the true maximum per index from the
	// naive enumeration, then check strict-NO at the max and YES just
	// below (when positive).
	all, err := core.NaiveAnswers(db, mq, core.Type0, core.Thresholds{})
	if err != nil {
		t.Fatal(err)
	}
	maxes := map[core.Index]rat.Rat{core.Sup: rat.Zero, core.Cnf: rat.Zero, core.Cvr: rat.Zero}
	for _, a := range all {
		maxes[core.Sup] = rat.Max(maxes[core.Sup], a.Sup)
		maxes[core.Cnf] = rat.Max(maxes[core.Cnf], a.Cnf)
		maxes[core.Cvr] = rat.Max(maxes[core.Cvr], a.Cvr)
	}
	for _, ix := range core.AllIndices {
		max := maxes[ix]
		if yes, _, _ := decideAll(t, db, mq, core.Type0, ix, max); yes {
			t.Errorf("%s > max=%s: strict comparison decided YES", ix, max)
		}
		if max.Greater(rat.Zero) {
			below := rat.New(max.Num(), max.Den()*2)
			if yes, _, _ := decideAll(t, db, mq, core.Type0, ix, below); !yes {
				t.Errorf("%s > %s (below max %s): decided NO", ix, below, max)
			}
		}
	}
}

// Cancelling the context mid-search must surface ctx.Err() and stop the
// walk before it completes.
func TestDecideFirstCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the very first ctx check must fire
	db := relation.NewDatabase()
	db.MustInsertNamed("p", "a", "b")
	db.MustInsertNamed("q", "b", "c")
	mq := core.MustParse("R(X,Z) <- P(X,Y), Q(Y,Z)")
	p, err := NewEngine(db).Prepare(mq, Options{Type: core.Type1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.DecideFirst(ctx, core.Sup, rat.Zero); err != context.Canceled {
		t.Errorf("cancelled DecideFirst returned %v, want context.Canceled", err)
	}
}

// Cancellation arriving mid-first-witness (after the search has started)
// must also stop the run promptly; a YES found before the cancellation is
// still a YES.
func TestDecideFirstCancelMidSearch(t *testing.T) {
	db := relation.NewDatabase()
	for i := 0; i < 30; i++ {
		db.MustInsertNamed("p", fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i))
		db.MustInsertNamed("q", fmt.Sprintf("b%d", i), fmt.Sprintf("c%d", i))
		db.MustInsertNamed("r", fmt.Sprintf("x%d", i), fmt.Sprintf("y%d", i))
	}
	mq := core.MustParse("R(X,Z) <- P(X,Y), Q(Y,Z)")
	p, err := NewEngine(db).Prepare(mq, Options{Type: core.Type1})
	if err != nil {
		t.Fatal(err)
	}
	// Cancel from a racing goroutine while repeatedly deciding a NO bound
	// (k = 1 can never be exceeded), so the search is mid-walk when the
	// cancellation lands. Every outcome must be either a clean NO (the run
	// finished first) or ctx.Err().
	for trial := 0; trial < 20; trial++ {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			cancel()
			close(done)
		}()
		yes, wit, err := p.DecideFirst(ctx, core.Cnf, rat.New(1, 1))
		<-done
		if err != nil && err != context.Canceled {
			t.Fatalf("trial %d: unexpected error %v", trial, err)
		}
		if yes || wit != nil {
			t.Fatalf("trial %d: NO-bound decision returned YES", trial)
		}
	}
}

// DecideFirst must agree with the naive Decide on generated scenarios
// while both run concurrently from many goroutines (exercised under -race
// in CI): same verdicts, valid witnesses, no data races on the shared
// Prepared.
func TestDecideFirstAgreesWithDecideConcurrent(t *testing.T) {
	shapes := []string{"t0-chain", "t1-cycle", "t2-pad", "t1-arity-mix", "t2-empty-rel"}
	var wg sync.WaitGroup
	for i, shape := range shapes {
		wg.Add(1)
		go func(seed int64, shape string) {
			defer wg.Done()
			s, err := gen.NewScenario(seed, shape)
			if err != nil {
				t.Error(err)
				return
			}
			prep, err := NewEngine(s.DB).Prepare(s.MQ, Options{Type: s.Type})
			if err != nil {
				t.Error(err)
				return
			}
			var inner sync.WaitGroup
			for _, ix := range core.AllIndices {
				for _, k := range []rat.Rat{rat.Zero, rat.New(1, 3), rat.New(1, 1)} {
					inner.Add(1)
					go func(ix core.Index, k rat.Rat) {
						defer inner.Done()
						wantYes, _, err := core.Decide(s.DB, s.MQ, ix, k, s.Type)
						if err != nil {
							t.Error(err)
							return
						}
						yes, wit, err := prep.DecideFirst(context.Background(), ix, k)
						if err != nil {
							t.Error(err)
							return
						}
						if yes != wantYes {
							t.Errorf("%s/%d %s > %s: DecideFirst %v, Decide %v", shape, seed, ix, k, yes, wantYes)
							return
						}
						if !yes {
							return
						}
						rule, err := wit.Apply(s.MQ)
						if err != nil {
							t.Errorf("%s/%d: witness does not instantiate: %v", shape, seed, err)
							return
						}
						v, err := ix.Compute(s.DB, rule)
						if err != nil {
							t.Error(err)
							return
						}
						if !v.Greater(k) {
							t.Errorf("%s/%d: witness rule %s has %s = %s, not > %s", shape, seed, rule, ix, v, k)
						}
					}(ix, k)
				}
			}
			inner.Wait()
		}(int64(i*13+1), shape)
	}
	wg.Wait()
}

// On support decisions the head is never evaluated: the stats must show
// the head search skipped, with zero head candidates tried.
func TestDecideFirstSkipsHeadsOnSupport(t *testing.T) {
	db := relation.NewDatabase()
	db.MustInsertNamed("p", "a", "b")
	db.MustInsertNamed("q", "b", "c")
	mq := core.MustParse("R(X,Z) <- P(X,Y), Q(Y,Z)")
	yes, wit, st := decideAll(t, db, mq, core.Type0, core.Sup, rat.Zero)
	if !yes || wit == nil {
		t.Fatal("expected a YES with witness")
	}
	if st.HeadsSkipped != 1 || st.HeadsTried != 0 {
		t.Errorf("stats = heads tried %d, skipped %d; want 0 tried, 1 skipped", st.HeadsTried, st.HeadsSkipped)
	}
	// The skipped-head witness must still be a complete instantiation.
	if _, err := wit.Apply(mq); err != nil {
		t.Errorf("witness incomplete: %v", err)
	}
}

// The deprecated Limit-1 idiom and DecideFirst agree across every index on
// a workload with several admissible answers.
func TestDecideFirstMatchesLimitOneIdiom(t *testing.T) {
	s, err := gen.NewScenario(3, "t0-star")
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(s.DB)
	for _, ix := range core.AllIndices {
		for _, k := range []rat.Rat{rat.Zero, rat.New(1, 4), rat.New(1, 2)} {
			lim, err := eng.Prepare(s.MQ, Options{Type: s.Type, Thresholds: core.SingleIndex(ix, k), Limit: 1})
			if err != nil {
				t.Fatal(err)
			}
			answers, err := lim.FindRules(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			prep, err := eng.Prepare(s.MQ, Options{Type: s.Type})
			if err != nil {
				t.Fatal(err)
			}
			yes, _, err := prep.DecideFirst(context.Background(), ix, k)
			if err != nil {
				t.Fatal(err)
			}
			if yes != (len(answers) > 0) {
				t.Errorf("%s > %s: DecideFirst %v, Limit-1 found %d answers", ix, k, yes, len(answers))
			}
		}
	}
}
