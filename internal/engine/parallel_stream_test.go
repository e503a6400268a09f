package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/mqgo/metaquery/internal/core"
	"github.com/mqgo/metaquery/internal/gen"
	"github.com/mqgo/metaquery/internal/rat"
	"github.com/mqgo/metaquery/internal/relation"
)

// answerMultiset folds an answer slice into a multiset keyed by rule text
// and the three exact index values — the order-insensitive identity the
// parallel merge is allowed to permute.
func answerMultiset(as []core.Answer) map[string]int {
	m := make(map[string]int, len(as))
	for _, a := range as {
		m[fmt.Sprintf("%s|%s|%s|%s", a.Rule.String(), a.Sup, a.Cnf, a.Cvr)]++
	}
	return m
}

func sameMultiset(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, n := range a {
		if b[k] != n {
			return false
		}
	}
	return true
}

// checkGoroutines polls until the goroutine count settles back to the
// recorded baseline: a parallel stream that returned — normally, via
// break, Limit, or cancellation — must leave no worker behind.
func checkGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d running, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// bigParallelScenario builds a database and cyclic metaquery whose full
// enumeration yields many answers across many first-node candidates —
// enough body for cancellation and limit tests to interrupt mid-flight.
func bigParallelScenario(t *testing.T) (*Prepared, []core.Answer) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	db := gen.DBConfig{Relations: 3, MinArity: 2, MaxArity: 2, MinTuples: 80, MaxTuples: 80, Domain: 9}.Generate(rng)
	mq, err := gen.MQConfig{BodyPatterns: 3, PatternArity: 2, Cyclic: true}.Generate(rng, db)
	if err != nil {
		t.Fatalf("gen: %v", err)
	}
	prep, err := NewEngine(db).Prepare(mq, Options{Type: core.Type1, Workers: 4})
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	full, err := prep.FindRules(context.Background())
	if err != nil {
		t.Fatalf("find: %v", err)
	}
	if len(full) < 20 {
		t.Fatalf("scenario too small to interrupt: %d answers", len(full))
	}
	return prep, full
}

// TestParallelStreamMatchesSequential sweeps generated scenarios through
// Stream and FindRules at several worker counts and checks each against
// the sequential answer multiset: sharding the first node's candidates is
// a scheduling choice, never a semantic one.
func TestParallelStreamMatchesSequential(t *testing.T) {
	for _, shape := range gen.Shapes() {
		for _, seed := range []int64{1, 5} {
			t.Run(fmt.Sprintf("%s/seed%d", shape, seed), func(t *testing.T) {
				s, err := gen.NewScenario(seed, shape)
				if err != nil {
					t.Fatal(err)
				}
				eng := NewEngine(s.DB)
				seqPrep, err := eng.Prepare(s.MQ, Options{Type: s.Type, Thresholds: s.Th})
				if err != nil {
					t.Fatal(err)
				}
				want, err := seqPrep.FindRules(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				wantSet := answerMultiset(want)

				for _, workers := range []int{2, 4, 7} {
					prep, err := eng.Prepare(s.MQ, Options{Type: s.Type, Thresholds: s.Th, Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					var streamed []core.Answer
					for a, serr := range prep.Stream(context.Background()) {
						if serr != nil {
							t.Fatalf("workers=%d: stream error %v", workers, serr)
						}
						streamed = append(streamed, a)
					}
					if got := answerMultiset(streamed); !sameMultiset(got, wantSet) {
						t.Fatalf("workers=%d: stream multiset differs from sequential (%d vs %d answers)",
							workers, len(streamed), len(want))
					}
					full, err := prep.FindRules(context.Background())
					if err != nil {
						t.Fatalf("workers=%d: find: %v", workers, err)
					}
					if got := answerMultiset(full); !sameMultiset(got, wantSet) {
						t.Fatalf("workers=%d: FindRules multiset differs from sequential", workers)
					}
					// FindRules sorts regardless of worker count: the two
					// sorted slices must agree element-wise, not just as
					// multisets.
					for i := range full {
						if full[i].Rule.String() != want[i].Rule.String() {
							t.Fatalf("workers=%d: sorted answer %d is %s, sequential has %s",
								workers, i, full[i].Rule, want[i].Rule)
						}
					}
				}
			})
		}
	}
}

// TestCandCursorPartition drives the shared chunk cursor from concurrent
// takers across a sweep of list lengths and worker counts, asserting the
// invariant the parallel paths rely on: the claimed chunks form a disjoint
// partition of the candidate list — every candidate is handed out exactly
// once — so the workers' answer multisets union to the sequential one.
func TestCandCursorPartition(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 8, 16, 57, 200, 1024} {
		for _, workers := range []int{1, 2, 4, 7} {
			cands := make([]relation.Atom, n)
			for i := range cands {
				cands[i] = relation.Atom{Pred: fmt.Sprintf("r%d", i)}
			}
			cursor := newCandCursor(cands, workers)

			var (
				mu     sync.Mutex
				seen   = make(map[string]int, n)
				chunks int
				wg     sync.WaitGroup
			)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for block := cursor.take(); block != nil; block = cursor.take() {
						if len(block) == 0 {
							t.Error("cursor handed out an empty chunk")
							return
						}
						mu.Lock()
						chunks++
						for _, a := range block {
							seen[a.Pred]++
						}
						mu.Unlock()
					}
				}()
			}
			wg.Wait()

			if len(seen) != n {
				t.Fatalf("n=%d workers=%d: %d distinct candidates handed out, want %d",
					n, workers, len(seen), n)
			}
			for _, c := range cands {
				if seen[c.Pred] != 1 {
					t.Fatalf("n=%d workers=%d: candidate %s claimed %d times, want exactly once",
						n, workers, c.Pred, seen[c.Pred])
				}
			}
			if max := (n + cursor.chunk - 1) / cursor.chunk; chunks > max {
				t.Fatalf("n=%d workers=%d: %d chunks claimed, chunk size %d allows at most %d",
					n, workers, chunks, cursor.chunk, max)
			}
		}
	}
}

// TestParallelStreamConcurrentConsumers runs many complete Stream
// iterations of one shared Prepared (workers > 1) from concurrent
// goroutines: every consumer must observe the full answer multiset, with
// no data races between the overlapping worker pools (exercised under
// -race in CI).
func TestParallelStreamConcurrentConsumers(t *testing.T) {
	prep, full := bigParallelScenario(t)
	wantSet := answerMultiset(full)

	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var got []core.Answer
			for a, serr := range prep.Stream(context.Background()) {
				if serr != nil {
					t.Errorf("stream error: %v", serr)
					return
				}
				got = append(got, a)
			}
			if !sameMultiset(answerMultiset(got), wantSet) {
				t.Errorf("consumer saw %d answers, want %d", len(got), len(full))
			}
		}()
	}
	wg.Wait()
}

// TestParallelStreamCancellation cancels the context after the first
// merged answer: the cancellation must surface in-band as the stream's
// final element, and every worker goroutine must exit.
func TestParallelStreamCancellation(t *testing.T) {
	prep, full := bigParallelScenario(t)
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	delivered, sawErr := 0, error(nil)
	for a, serr := range prep.StreamStats(ctx, nil) {
		if serr != nil {
			sawErr = serr
			continue
		}
		_ = a
		delivered++
		if delivered == 1 {
			cancel()
		}
	}
	if !errors.Is(sawErr, context.Canceled) {
		t.Fatalf("stream error = %v, want context.Canceled", sawErr)
	}
	if delivered >= len(full) {
		t.Fatalf("delivered all %d answers despite cancellation", delivered)
	}
	checkGoroutines(t, baseline)
}

// TestParallelStreamLimit checks Limit enforcement across the merged
// stream: exactly Limit answers are delivered, each a member of the full
// answer set, and no worker outlives the iteration.
func TestParallelStreamLimit(t *testing.T) {
	prep, full := bigParallelScenario(t)
	fullSet := answerMultiset(full)
	baseline := runtime.NumGoroutine()

	const limit = 5
	limPrep, err := NewEngine(prep.eng.Database()).Prepare(prep.Metaquery(), Options{Type: core.Type1, Workers: 4, Limit: limit})
	if err != nil {
		t.Fatal(err)
	}
	var got []core.Answer
	for a, serr := range limPrep.Stream(context.Background()) {
		if serr != nil {
			t.Fatalf("stream error: %v", serr)
		}
		got = append(got, a)
	}
	if len(got) != limit {
		t.Fatalf("limit %d delivered %d answers", limit, len(got))
	}
	for k, n := range answerMultiset(got) {
		if fullSet[k] < n {
			t.Fatalf("limited stream delivered %q ×%d, full set has ×%d", k, n, fullSet[k])
		}
	}
	checkGoroutines(t, baseline)
}

// TestParallelStreamBreak abandons the merged stream after one answer
// without touching the context: breaking out of the iteration alone must
// stop every worker.
func TestParallelStreamBreak(t *testing.T) {
	prep, _ := bigParallelScenario(t)
	baseline := runtime.NumGoroutine()

	got := 0
	for _, serr := range prep.Stream(context.Background()) {
		if serr != nil {
			t.Fatalf("stream error: %v", serr)
		}
		got++
		break
	}
	if got != 1 {
		t.Fatalf("streamed %d answers before break, want 1", got)
	}
	checkGoroutines(t, baseline)
}

// cancelOnErr is a context cancelled by the first call of its Err. Sharded
// workers consult only the driver's child context, so in a sharded run the
// first such call is the driver's own, after every worker has exited: it
// models an outer cancel landing just after a witness was found.
type cancelOnErr struct {
	context.Context
	cancel context.CancelFunc
}

func (c cancelOnErr) Err() error {
	c.cancel()
	return c.Context.Err()
}

// TestShardContract pins what the one worker pool guarantees both parallel
// modes: a nil ctx works, an outer cancel surfaces (in-band for the stream,
// as the returned error for the decider), a witness found before the outer
// cancel still wins, StreamStats carries Width and Nodes from the first
// yield, and no case leaves a goroutine behind.
func TestShardContract(t *testing.T) {
	prep, full := bigParallelScenario(t)
	no := rat.New(1, 1) // sup > 1 is a certain NO: every chunk runs
	cancelled := func() context.Context {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		return ctx
	}
	for _, c := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"stream/nil-ctx", func(t *testing.T) {
			n := 0
			for _, err := range prep.Stream(nil) {
				if err != nil {
					t.Fatal(err)
				}
				n++
			}
			if n != len(full) {
				t.Fatalf("streamed %d answers, want %d", n, len(full))
			}
		}},
		{"decide/nil-ctx", func(t *testing.T) {
			if yes, _, err := prep.DecideFirst(nil, core.Sup, no); err != nil || yes {
				t.Fatalf("NO decision: yes=%v err=%v", yes, err)
			}
			if yes, wit, err := prep.DecideFirst(nil, core.Sup, rat.Zero); err != nil || !yes || wit == nil {
				t.Fatalf("YES decision: yes=%v witness=%v err=%v", yes, wit, err)
			}
		}},
		{"stream/outer-cancel", func(t *testing.T) {
			var last error
			for _, err := range prep.Stream(cancelled()) {
				if err == nil {
					t.Fatal("answer streamed from a cancelled context")
				}
				last = err
			}
			if !errors.Is(last, context.Canceled) {
				t.Fatalf("stream error = %v, want context.Canceled", last)
			}
		}},
		{"decide/outer-cancel", func(t *testing.T) {
			yes, _, st, err := prep.DecideFirstStats(cancelled(), core.Sup, no)
			if yes || !errors.Is(err, context.Canceled) || st == nil {
				t.Fatalf("yes=%v stats=%v err=%v, want NO with stats and context.Canceled", yes, st, err)
			}
		}},
		{"decide/witness-before-cancel", func(t *testing.T) {
			inner, cancel := context.WithCancel(context.Background())
			yes, wit, err := prep.DecideFirst(cancelOnErr{inner, cancel}, core.Sup, rat.Zero)
			if err != nil || !yes || wit == nil {
				t.Fatalf("yes=%v witness=%v err=%v, want the witness to win", yes, wit, err)
			}
		}},
		{"stream/first-yield-stats", func(t *testing.T) {
			st := Stats{Width: -1, Nodes: -1, Answers: -1}
			for _, err := range prep.StreamStats(context.Background(), &st) {
				if err != nil {
					t.Fatal(err)
				}
				if st.Width != prep.Width() || st.Nodes != len(prep.order) {
					t.Fatalf("at first yield Width=%d Nodes=%d, want %d and %d", st.Width, st.Nodes, prep.Width(), len(prep.order))
				}
				break
			}
			if st.Answers != 1 {
				t.Fatalf("Answers = %d after breaking on the first answer, want 1", st.Answers)
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			c.run(t)
			checkGoroutines(t, baseline)
		})
	}
}

// TestShardWorkerPanicFailsRun injects a panic into one worker's body
// search: the execution must fail with a *PanicError carrying the panic
// value, stop the other worker, and leave no goroutine running.
func TestShardWorkerPanicFailsRun(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := gen.DBConfig{Relations: 3, MinArity: 2, MaxArity: 2, MinTuples: 80, MaxTuples: 80, Domain: 9}.Generate(rng)
	mq, err := gen.MQConfig{BodyPatterns: 3, PatternArity: 2, Cyclic: true}.Generate(rng, db)
	if err != nil {
		t.Fatalf("gen: %v", err)
	}
	prep, err := NewEngine(db).Prepare(mq, Options{Type: core.Type1, Workers: 2})
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	baseline := runtime.NumGoroutine()
	var fired sync.Once
	shardHook = func(r *run) {
		onBody := r.onBody
		r.onBody = func(b *body) error {
			fired.Do(func() { panic("injected worker fault") })
			return onBody(b)
		}
	}
	defer func() { shardHook = nil }()
	answers, _, err := prep.FindRulesStats(context.Background())
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("FindRulesStats = %d answers, err %v; want a *PanicError", len(answers), err)
	}
	if pe.Value != "injected worker fault" || len(pe.Stack) == 0 || !strings.Contains(err.Error(), "injected worker fault") {
		t.Fatalf("PanicError %q = %q with %d stack bytes", err, pe.Value, len(pe.Stack))
	}
	checkGoroutines(t, baseline)

	// The engine stays usable: the next execution runs clean.
	shardHook = nil
	if _, err := prep.FindRules(context.Background()); err != nil {
		t.Fatalf("FindRules after a recovered panic: %v", err)
	}
}
