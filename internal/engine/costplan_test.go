package engine

import (
	"context"
	"sync"
	"testing"

	"github.com/mqgo/metaquery/internal/core"
	"github.com/mqgo/metaquery/internal/obs"
	"github.com/mqgo/metaquery/internal/rat"
	"github.com/mqgo/metaquery/internal/workload"
)

// TestDecideFirstParallelMatchesSequential compares verdicts of the
// partitioned first-witness search against the sequential one across
// worker counts, indices and bounds (including a bound that flips the
// verdict to NO).
func TestDecideFirstParallelMatchesSequential(t *testing.T) {
	ctx := context.Background()
	db := workload.ChainDB(3, 12, 40, 3)
	mq := workload.ChainMQ(3)
	eng := NewEngine(db)
	seq, err := eng.Prepare(mq, Options{Type: core.Type0})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8, 64} {
		par, err := eng.Prepare(mq, Options{Type: core.Type0, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for _, ix := range core.AllIndices {
			for _, k := range []rat.Rat{rat.Zero, rat.New(1, 100), rat.New(1, 1)} {
				wantYes, _, err := seq.DecideFirst(ctx, ix, k)
				if err != nil {
					t.Fatal(err)
				}
				gotYes, wit, st, err := par.DecideFirstStats(ctx, ix, k)
				if err != nil {
					t.Fatalf("workers=%d %s>%s: %v", workers, ix, k, err)
				}
				if gotYes != wantYes {
					t.Fatalf("workers=%d %s>%s: parallel %v, sequential %v", workers, ix, k, gotYes, wantYes)
				}
				if gotYes {
					if wit == nil {
						t.Fatalf("workers=%d %s>%s: YES without witness", workers, ix, k)
					}
					rule, err := wit.Apply(mq)
					if err != nil {
						t.Fatalf("workers=%d: witness does not instantiate: %v", workers, err)
					}
					v, err := ix.ComputeEval(core.NewEvaluator(db), rule)
					if err != nil {
						t.Fatal(err)
					}
					if !v.Greater(k) {
						t.Fatalf("workers=%d: witness %s has %s=%s, not > %s", workers, rule, ix, v, k)
					}
				}
				if st == nil {
					t.Fatalf("workers=%d: nil stats", workers)
				}
			}
		}
	}
}

// TestDecideFirstParallelCancel cancels the surrounding context mid-search
// on a NO-bound run: the parallel path must surface the context error
// rather than report a definitive NO.
func TestDecideFirstParallelCancel(t *testing.T) {
	db := workload.ChainDB(3, 25, 150, 9)
	mq := workload.ChainMQ(3)
	par, err := NewEngine(db).Prepare(mq, Options{Type: core.Type0, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	yes, _, err := par.DecideFirst(ctx, core.Cnf, rat.New(1, 1))
	if yes {
		t.Fatal("cancelled parallel decision returned YES")
	}
	if err == nil {
		t.Fatal("cancelled parallel decision reported a definitive NO")
	}
}

// TestDecideFirstParallelConcurrent exercises parallel decisions racing
// with enumeration on one engine (run under -race in CI).
func TestDecideFirstParallelConcurrent(t *testing.T) {
	db := workload.ChainDB(3, 10, 30, 5)
	mq := workload.ChainMQ(3)
	eng := NewEngine(db)
	par, err := eng.Prepare(mq, Options{Type: core.Type0, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := par.DecideFirst(ctx, core.Sup, rat.Zero); err != nil {
				t.Error(err)
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := par.FindRules(ctx); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}

// TestExplainRun checks the plan report: one record per decomposition
// node in visit order, positive estimates on a populated database, actual
// row counts recorded, and the answer set identical to FindRules.
func TestExplainRun(t *testing.T) {
	ctx := context.Background()
	db := workload.ChainDB(3, 10, 40, 7)
	mq := workload.ChainMQ(3)
	prep, err := NewEngine(db).Prepare(mq, Options{Type: core.Type0})
	if err != nil {
		t.Fatal(err)
	}
	ex, answers, err := prep.ExplainRun(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Nodes) != len(prep.order) {
		t.Fatalf("explain has %d nodes, decomposition %d", len(ex.Nodes), len(prep.order))
	}
	visited := 0
	for _, n := range ex.Nodes {
		if n.EstRows <= 0 {
			t.Errorf("node %d estimate %v, want > 0 on a populated database", n.NodeID, n.EstRows)
		}
		if n.Visits > 0 {
			visited++
			if n.MaxRows < n.MinRows || n.TotalRows < n.MaxRows {
				t.Errorf("node %d actuals inconsistent: min=%d max=%d total=%d", n.NodeID, n.MinRows, n.MaxRows, n.TotalRows)
			}
		}
	}
	if visited == 0 {
		t.Error("no node recorded any actual row counts")
	}
	if ex.String() == "" {
		t.Error("empty explain rendering")
	}

	want, err := prep.FindRules(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != len(want) {
		t.Fatalf("explained run found %d answers, FindRules %d", len(answers), len(want))
	}
	for i := range want {
		if answers[i].Rule.String() != want[i].Rule.String() {
			t.Fatalf("answer %d differs: %v vs %v", i, answers[i], want[i])
		}
	}
}

// TestExplainRunParallel checks that ExplainRun honours Options.Workers:
// the sharded run returns the sequential answers and, node by node, the
// same visit count and actual row statistics, since the chunks cover the
// candidate space exactly. It also checks that a traced explain run roots
// its node-join spans under a findrules span (sequential) or the
// stream-parallel coordinator (sharded), never as orphan roots.
func TestExplainRunParallel(t *testing.T) {
	db := workload.ChainDB(3, 10, 40, 7)
	mq := workload.ChainMQ(3)
	eng := NewEngine(db)
	explain := func(workers int, root string) (*Explain, []core.Answer) {
		t.Helper()
		prep, err := eng.Prepare(mq, Options{Type: core.Type0, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.NewTracer()
		ex, answers, err := prep.ExplainRun(obs.WithTracer(context.Background(), tr))
		if err != nil {
			t.Fatal(err)
		}
		roots := tr.Tree()
		if len(spansNamed(roots, root)) != 1 {
			t.Fatalf("workers=%d: want one %s span\n%s", workers, root, obs.RenderTree(roots))
		}
		for _, r := range roots {
			if r.Name == "node-join" {
				t.Fatalf("workers=%d: orphan node-join root span\n%s", workers, obs.RenderTree(roots))
			}
		}
		return ex, answers
	}
	seqEx, seqAnswers := explain(1, "findrules")
	parEx, parAnswers := explain(3, "stream-parallel")

	if len(parAnswers) != len(seqAnswers) {
		t.Fatalf("parallel explain found %d answers, sequential %d", len(parAnswers), len(seqAnswers))
	}
	for i := range seqAnswers {
		if parAnswers[i].Rule.String() != seqAnswers[i].Rule.String() {
			t.Fatalf("answer %d differs: %v vs %v", i, parAnswers[i], seqAnswers[i])
		}
	}
	if parEx.Stats.Answers != len(parAnswers) {
		t.Fatalf("parallel Stats.Answers = %d, want %d", parEx.Stats.Answers, len(parAnswers))
	}
	if len(parEx.Nodes) != len(seqEx.Nodes) {
		t.Fatalf("parallel report has %d nodes, sequential %d", len(parEx.Nodes), len(seqEx.Nodes))
	}
	for i, want := range seqEx.Nodes {
		got := parEx.Nodes[i]
		if got.NodeID != want.NodeID || got.EstRows != want.EstRows ||
			got.Visits != want.Visits || got.MinRows != want.MinRows ||
			got.MaxRows != want.MaxRows || got.TotalRows != want.TotalRows {
			t.Errorf("node %d: parallel %+v, sequential %+v", want.NodeID, got, want)
		}
	}
}

// TestOrderedCandidatesAscending checks the selectivity ordering cache:
// for every pattern scheme the candidate list is sorted by estimated
// materialization size, ascending.
func TestOrderedCandidatesAscending(t *testing.T) {
	db := workload.Random{Relations: 5, Arity: 2, Tuples: 30, Domain: 8, Seed: 11}.Build()
	// Unbalance the relation sizes so the ordering is non-trivial.
	db.MustInsertNamed("r0", "extra", "extra")
	mq := workload.MQ4()
	eng := NewEngine(db)
	prep, err := eng.Prepare(mq, Options{Type: core.Type0})
	if err != nil {
		t.Fatal(err)
	}
	ordered := prep.orderedCandidates(prep.epoch())
	if len(ordered) == 0 {
		t.Fatal("no ordered candidate lists on a statistics-backed engine")
	}
	for id, cands := range ordered {
		prev := -1.0
		for _, a := range cands {
			rows := eng.snap.Load().ev.AtomEst(a).Rows
			if rows < prev {
				t.Fatalf("scheme %d: candidate %s (est %v) after a larger estimate %v", id, a, rows, prev)
			}
			prev = rows
		}
	}
}
