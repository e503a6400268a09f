package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/mqgo/metaquery/internal/core"
	"github.com/mqgo/metaquery/internal/rat"
	"github.com/mqgo/metaquery/internal/relation"
)

// bigSearchDB builds a database whose type-2 instantiation space is far too
// large to exhaust within the tests' deadlines, for cancellation tests.
func bigSearchDB(t testing.TB) *relation.Database {
	t.Helper()
	db := relation.NewDatabase()
	for r := 0; r < 10; r++ {
		name := fmt.Sprintf("r%d", r)
		db.MustAddRelation(name, 3)
		for i := 0; i < 20; i++ {
			db.MustInsertNamed(name,
				fmt.Sprintf("a%d", (i*7+r)%9),
				fmt.Sprintf("b%d", (i*5+r)%9),
				fmt.Sprintf("c%d", (i*3+r)%9))
		}
	}
	return db
}

func TestPreparedReexecutionMatchesFindRules(t *testing.T) {
	db := db1(t)
	mq := core.MustParse("R(X,Z) <- P(X,Y), Q(Y,Z)")
	for _, typ := range []core.InstType{core.Type0, core.Type1, core.Type2} {
		opt := Options{Type: typ, Thresholds: core.AllAbove(rat.New(1, 4), rat.Zero, rat.Zero)}
		want, _, err := NewEngine(db).FindRulesStats(context.Background(), mq, opt)
		if err != nil {
			t.Fatal(err)
		}
		prep, err := NewEngine(db).Prepare(mq, opt)
		if err != nil {
			t.Fatal(err)
		}
		// Execute three times: the later runs are served from the shared
		// join and atom-table caches and must be identical.
		for i := 0; i < 3; i++ {
			got, err := prep.FindRules(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			assertSameAnswers(t, got, want, fmt.Sprintf("%s run %d", typ, i))
		}
	}
}

func TestEngineDecideMatchesCore(t *testing.T) {
	db := db1(t)
	mq := core.MustParse("R(X,Z) <- P(X,Y), Q(Y,Z)")
	eng := NewEngine(db)
	ctx := context.Background()
	for _, tc := range []struct {
		ix core.Index
		k  rat.Rat
	}{
		{core.Sup, rat.Zero},
		{core.Cnf, rat.New(1, 2)},
		{core.Cnf, rat.New(99, 100)},
		{core.Cvr, rat.New(999, 1000)},
	} {
		want, _, err := core.Decide(db, mq, tc.ix, tc.k, core.Type1)
		if err != nil {
			t.Fatal(err)
		}
		got, witness, err := eng.Decide(ctx, mq, tc.ix, tc.k, core.Type1)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("Decide(%v > %v) = %v, core says %v", tc.ix, tc.k, got, want)
		}
		if got {
			// The witness must actually exceed the threshold.
			rule, err := witness.Apply(mq)
			if err != nil {
				t.Fatal(err)
			}
			v, err := tc.ix.Compute(db, rule)
			if err != nil {
				t.Fatal(err)
			}
			if !v.Greater(tc.k) {
				t.Errorf("witness %s scores %v, not > %v", rule, v, tc.k)
			}
		}
	}
}

func TestFindRulesContextPreCancelled(t *testing.T) {
	db := db1(t)
	mq := core.MustParse("R(X,Z) <- P(X,Y), Q(Y,Z)")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := NewEngine(db).FindRulesStats(ctx, mq, Options{Type: core.Type0})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestFindRulesContextDeadline(t *testing.T) {
	db := bigSearchDB(t)
	mq := core.MustParse("R(X,W) <- P(X,Y), Q(Y,Z), S(Z,W)")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := NewEngine(db).FindRulesStats(ctx, mq, Options{Type: core.Type2})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	// The search must stop promptly once the deadline passes, not finish
	// the exponential enumeration. Allow generous slack for slow machines.
	if elapsed > 5*time.Second {
		t.Fatalf("search took %v to notice a 30ms deadline", elapsed)
	}
}

func TestFindRulesCancelMidSearch(t *testing.T) {
	db := bigSearchDB(t)
	mq := core.MustParse("R(X,W) <- P(X,Y), Q(Y,Z), S(Z,W)")
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, _, err := NewEngine(db).FindRulesStats(ctx, mq, Options{Type: core.Type2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("search took %v to notice cancellation", elapsed)
	}
}

func TestStreamMatchesFindRules(t *testing.T) {
	db := db1(t)
	mq := core.MustParse("R(X,Z) <- P(X,Y), Q(Y,Z)")
	opt := Options{Type: core.Type1, Thresholds: core.SingleIndex(core.Cvr, rat.New(1, 2))}
	want, _, err := NewEngine(db).FindRulesStats(context.Background(), mq, opt)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := NewEngine(db).Prepare(mq, opt)
	if err != nil {
		t.Fatal(err)
	}
	var got []core.Answer
	for a, err := range prep.Stream(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, a)
	}
	core.SortAnswers(got)
	assertSameAnswers(t, got, want, "streamed")
}

func TestStreamEarlyExitDoesLessWork(t *testing.T) {
	db := db1(t)
	mq := core.MustParse("R(X,Z) <- P(X,Y), Q(Y,Z)")
	// No thresholds: every instantiation is admissible, so the full run
	// must examine the entire candidate space.
	opt := Options{Type: core.Type1}
	full, fullStats, err := NewEngine(db).FindRulesStats(context.Background(), mq, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) < 2 {
		t.Fatalf("workload too small: %d answers", len(full))
	}

	prep, err := NewEngine(db).Prepare(mq, opt)
	if err != nil {
		t.Fatal(err)
	}
	var early Stats
	n := 0
	for _, err := range prep.StreamStats(context.Background(), &early) {
		if err != nil {
			t.Fatal(err)
		}
		n++
		break // first answer is enough
	}
	if n != 1 {
		t.Fatalf("streamed %d answers, want 1", n)
	}
	if early.Answers != 1 {
		t.Errorf("stats count %d answers, want 1 (the delivered answer counts even on break)", early.Answers)
	}
	earlyWork := early.BodyCandidatesTried + early.HeadsTried
	fullWork := fullStats.BodyCandidatesTried + fullStats.HeadsTried
	if earlyWork >= fullWork {
		t.Fatalf("early exit did %d units of work, full search did %d; want strictly less",
			earlyWork, fullWork)
	}
}

func TestStreamHonorsLimit(t *testing.T) {
	db := db1(t)
	mq := core.MustParse("R(X,Z) <- P(X,Y), Q(Y,Z)")
	prep, err := NewEngine(db).Prepare(mq, Options{Type: core.Type1, Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, err := range prep.Stream(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 3 {
		t.Fatalf("streamed %d answers with Limit 3", n)
	}
}

func TestStreamDeliversCtxErrorInBand(t *testing.T) {
	db := db1(t)
	mq := core.MustParse("R(X,Z) <- P(X,Y), Q(Y,Z)")
	prep, err := NewEngine(db).Prepare(mq, Options{Type: core.Type0})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var last error
	for _, err := range prep.Stream(ctx) {
		last = err
	}
	if !errors.Is(last, context.Canceled) {
		t.Fatalf("stream delivered %v, want context.Canceled", last)
	}
}

// TestEngineSharedAcrossGoroutines exercises one Engine (and one shared
// Prepared) from many goroutines at once; run under -race it also proves
// the cache synchronization. Results must be identical across goroutines.
func TestEngineSharedAcrossGoroutines(t *testing.T) {
	db := db1(t)
	eng := NewEngine(db)
	mqs := []*core.Metaquery{
		core.MustParse("R(X,Z) <- P(X,Y), Q(Y,Z)"),
		core.MustParse("R(X,Y) <- P(X,Y)"),
	}
	shared, err := eng.Prepare(mqs[0], Options{Type: core.Type1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := shared.FindRules(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*2)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Concurrent executions of the shared Prepared ...
			got, err := shared.FindRules(context.Background())
			if err != nil {
				errs <- err
				return
			}
			if len(got) != len(want) {
				errs <- fmt.Errorf("goroutine %d: %d answers, want %d", g, len(got), len(want))
				return
			}
			for i := range got {
				if got[i].Rule.String() != want[i].Rule.String() {
					errs <- fmt.Errorf("goroutine %d: answer %d differs", g, i)
					return
				}
			}
			// ... interleaved with fresh Prepare+run on the same Engine.
			mq := mqs[g%len(mqs)]
			p, err := eng.Prepare(mq, Options{Type: core.InstType(g % 3)})
			if err != nil {
				errs <- err
				return
			}
			if _, err := p.FindRules(context.Background()); err != nil {
				errs <- err
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
