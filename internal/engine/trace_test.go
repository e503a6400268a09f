package engine

import (
	"context"
	"fmt"
	"strconv"
	"testing"

	"github.com/mqgo/metaquery/internal/core"
	"github.com/mqgo/metaquery/internal/obs"
	"github.com/mqgo/metaquery/internal/rat"
	"github.com/mqgo/metaquery/internal/relation"
)

// flattenTree collects every node of a span forest, depth-first.
func flattenTree(roots []*obs.SpanTree) []*obs.SpanTree {
	var out []*obs.SpanTree
	var walk func(n *obs.SpanTree)
	walk = func(n *obs.SpanTree) {
		out = append(out, n)
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, r := range roots {
		walk(r)
	}
	return out
}

func spansNamed(roots []*obs.SpanTree, name string) []*obs.SpanTree {
	var out []*obs.SpanTree
	for _, s := range flattenTree(roots) {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// TestTracedFindRules checks the span tree of a traced enumeration: a
// findrules root holding node-join spans that carry the planner's
// estimated rows next to the actual output rows, and — on a re-execution
// over the warm node-join cache — cache-hit points instead of timed joins.
func TestTracedFindRules(t *testing.T) {
	db := db1(t)
	mq := core.MustParse("R(X,Z) <- P(X,Y), Q(Y,Z)")
	tr := obs.NewTracer()
	prep, err := NewEngine(db).Prepare(mq, Options{Type: core.Type0, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := prep.FindRulesStats(context.Background()); err != nil {
		t.Fatal(err)
	}
	roots := tr.Tree()
	fr := spansNamed(roots, "findrules")
	if len(fr) != 1 {
		t.Fatalf("findrules roots: %d, want 1\n%s", len(fr), obs.RenderTree(roots))
	}
	if fr[0].Attrs["answers"] == "" || fr[0].Attrs["semijoins"] == "" {
		t.Fatalf("findrules root missing answers/semijoins attrs: %v", fr[0].Attrs)
	}
	joins := spansNamed(roots, "node-join")
	if len(joins) == 0 {
		t.Fatalf("no node-join spans\n%s", obs.RenderTree(roots))
	}
	// A cold run must execute at least one real join; repeated bodies may
	// already hit the per-epoch cache within the same run.
	coldMisses := 0
	for _, j := range joins {
		if j.Attrs["cache"] == "miss" {
			coldMisses++
		}
		if j.Attrs["est_rows"] == "" || j.Attrs["rows"] == "" {
			t.Fatalf("node-join span missing est_rows/rows: %v", j.Attrs)
		}
	}
	if coldMisses == 0 {
		t.Fatalf("cold run recorded no cache-miss joins\n%s", obs.RenderTree(roots))
	}

	// Fresh engine, context-injected tracer, two executions: the second
	// runs entirely off the warm node-join cache, so the trace holds both
	// misses (first run) and hits (second run), hits still carrying
	// estimates.
	tr2 := obs.NewTracer()
	ctx := obs.WithTracer(context.Background(), tr2)
	prep2, err := NewEngine(db).Prepare(mq, Options{Type: core.Type0})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := prep2.FindRulesStats(ctx); err != nil {
		t.Fatal(err)
	}
	if _, _, err := prep2.FindRulesStats(ctx); err != nil {
		t.Fatal(err)
	}
	var hits, misses int
	for _, j := range spansNamed(tr2.Tree(), "node-join") {
		switch j.Attrs["cache"] {
		case "hit":
			hits++
			if j.Attrs["est_rows"] == "" {
				t.Fatalf("cache-hit span missing est_rows: %v", j.Attrs)
			}
		case "miss":
			misses++
		}
	}
	if hits == 0 || misses == 0 {
		t.Fatalf("warm re-execution: %d hits, %d misses — want both (context-injected tracer)", hits, misses)
	}
}

// TestTracedDecideApproxEscalation pins the threshold at the true fraction
// (the always-escalate scenario) and checks that the trace's sample spans
// agree with the run's counters: the number of spans marked escalated=true
// equals Stats.ApproxEscalated, and drawn sums to Stats.SamplesDrawn.
func TestTracedDecideApproxEscalation(t *testing.T) {
	db, mq := approxSamplingScenario(t)
	tr := obs.NewTracer()
	prep, err := NewEngine(db).Prepare(mq, Options{
		Type:   core.Type0,
		Tracer: tr,
		Approx: ApproxOptions{Epsilon: 0.01, Delta: 0.05, MaxSamples: 200},
	})
	if err != nil {
		t.Fatal(err)
	}
	yes, _, st, err := prep.DecideApproxStats(context.Background(), core.Cnf, rat.New(9, 10))
	if err != nil {
		t.Fatal(err)
	}
	if yes {
		t.Fatal("cnf > 9/10 decided YES, exact value is exactly 9/10")
	}
	if st.ApproxEscalated == 0 || st.SamplesDrawn == 0 {
		t.Fatalf("scenario did not sample+escalate: %+v", st)
	}
	roots := tr.Tree()
	if len(spansNamed(roots, "decide-approx")) != 1 {
		t.Fatalf("decide-approx roots != 1\n%s", obs.RenderTree(roots))
	}
	samples := spansNamed(roots, "sample")
	if len(samples) == 0 {
		t.Fatalf("no sample spans\n%s", obs.RenderTree(roots))
	}
	escalated, drawn := 0, 0
	for _, s := range samples {
		if s.Attrs["escalated"] == "true" {
			escalated++
		}
		d, err := strconv.Atoi(s.Attrs["drawn"])
		if err != nil {
			t.Fatalf("sample span drawn=%q: %v", s.Attrs["drawn"], err)
		}
		drawn += d
	}
	if escalated != st.ApproxEscalated {
		t.Fatalf("escalated sample spans = %d, Stats.ApproxEscalated = %d", escalated, st.ApproxEscalated)
	}
	if drawn != st.SamplesDrawn {
		t.Fatalf("sum of drawn attrs = %d, Stats.SamplesDrawn = %d", drawn, st.SamplesDrawn)
	}
}

// TestTracedParallelChunks checks the trace shape both parallel modes
// share: one coordinator span (stream-parallel for the enumeration,
// decide-parallel for the decider) parenting one chunk span per claimed
// cursor chunk, each chunk a run root carrying its worker, its candidate
// count and the kernel profile. The decision is a NO, so every chunk runs.
func TestTracedParallelChunks(t *testing.T) {
	prep, full := bigParallelScenario(t)
	for _, c := range []struct {
		coord string
		run   func(ctx context.Context) error
	}{
		{"stream-parallel", func(ctx context.Context) error {
			answers, _, err := prep.FindRulesStats(ctx)
			if err == nil && len(answers) != len(full) {
				return fmt.Errorf("traced parallel run: %d answers, want %d", len(answers), len(full))
			}
			return err
		}},
		{"decide-parallel", func(ctx context.Context) error {
			yes, _, err := prep.DecideFirst(ctx, core.Sup, rat.New(1, 1))
			if err == nil && yes {
				return fmt.Errorf("sup > 1 decided YES")
			}
			return err
		}},
	} {
		t.Run(c.coord, func(t *testing.T) {
			tr := obs.NewTracer()
			if err := c.run(obs.WithTracer(context.Background(), tr)); err != nil {
				t.Fatal(err)
			}
			roots := tr.Tree()
			coord := spansNamed(roots, c.coord)
			if len(coord) != 1 {
				t.Fatalf("%s spans: %d, want 1\n%s", c.coord, len(coord), obs.RenderTree(roots))
			}
			chunks := spansNamed(roots, "chunk")
			if len(chunks) < 2 {
				t.Fatalf("chunk spans: %d, want several", len(chunks))
			}
			for _, ch := range chunks {
				for _, k := range []string{"worker", "candidates", "semijoins"} {
					if ch.Attrs[k] == "" {
						t.Fatalf("chunk span missing %s: %v", k, ch.Attrs)
					}
				}
			}
			// Every chunk hangs off the coordinator.
			if got := len(coord[0].Children); got != len(chunks) {
				t.Fatalf("coordinator has %d children, %d chunk spans recorded", got, len(chunks))
			}
		})
	}
}

// TestTracedRebindEpoch checks the bind-epoch span: steady-state
// executions record rebound=false, and the first execution after an
// Engine.Apply delta records rebound=true.
func TestTracedRebindEpoch(t *testing.T) {
	db := db1(t)
	mq := core.MustParse("R(X,Z) <- P(X,Y), Q(Y,Z)")
	eng := NewEngine(db)
	prep, err := eng.Prepare(mq, Options{Type: core.Type0})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, _, err := prep.FindRulesStats(ctx); err != nil {
		t.Fatal(err)
	}

	tr := obs.NewTracer()
	if _, _, err := prep.FindRulesStats(obs.WithTracer(ctx, tr)); err != nil {
		t.Fatal(err)
	}
	be := spansNamed(tr.Tree(), "bind-epoch")
	if len(be) != 1 || be[0].Attrs["rebound"] != "false" {
		t.Fatalf("steady-state bind-epoch: %v", be)
	}

	if _, err := eng.Apply(ctx, Delta{Relations: []RelationDelta{{
		Name: "UsCa", Insert: [][]string{{"Maria B.", "Wind"}},
	}}}); err != nil {
		t.Fatal(err)
	}
	tr2 := obs.NewTracer()
	if _, _, err := prep.FindRulesStats(obs.WithTracer(ctx, tr2)); err != nil {
		t.Fatal(err)
	}
	be = spansNamed(tr2.Tree(), "bind-epoch")
	if len(be) != 1 || be[0].Attrs["rebound"] != "true" {
		t.Fatalf("post-Apply bind-epoch: %v", be)
	}
}

// TestEngineMetricsHistograms checks EnableMetrics: executed node joins
// land in the NodeJoin wall-time histogram and the estimate-quality
// histogram, and a warm re-execution (all cache hits) records nothing new.
func TestEngineMetricsHistograms(t *testing.T) {
	db := db1(t)
	mq := core.MustParse("R(X,Z) <- P(X,Y), Q(Y,Z)")
	eng := NewEngine(db)
	if eng.Metrics() != nil {
		t.Fatal("Metrics non-nil before EnableMetrics")
	}
	m := eng.EnableMetrics()
	if m2 := eng.EnableMetrics(); m2 != m {
		t.Fatal("EnableMetrics not idempotent")
	}
	if eng.Metrics() != m {
		t.Fatal("Metrics does not return the enabled histograms")
	}
	prep, err := eng.Prepare(mq, Options{Type: core.Type0})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := prep.FindRulesStats(context.Background()); err != nil {
		t.Fatal(err)
	}
	joins := m.NodeJoin.Count()
	if joins == 0 {
		t.Fatal("NodeJoin histogram empty after an enumeration")
	}
	if m.EstActualRatio.Count() != joins {
		t.Fatalf("EstActualRatio count %d != NodeJoin count %d", m.EstActualRatio.Count(), joins)
	}
	if _, _, err := prep.FindRulesStats(context.Background()); err != nil {
		t.Fatal(err)
	}
	if m.NodeJoin.Count() != joins {
		t.Fatalf("cache-hit re-execution recorded joins: %d -> %d", joins, m.NodeJoin.Count())
	}
}

// TestUntracedRunsShareResults pins the no-observability default: a run
// with neither tracer nor metrics returns identical answers (tracing is
// pure instrumentation).
func TestUntracedRunsShareResults(t *testing.T) {
	db := db1(t)
	mq := core.MustParse("R(X,Z) <- P(X,Y), Q(Y,Z)")
	plain, _, err := NewEngine(db).FindRulesStats(context.Background(), mq, Options{Type: core.Type0})
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer()
	traced, _, err := NewEngine(db).FindRulesStats(context.Background(), mq, Options{Type: core.Type0, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	assertSameAnswers(t, traced, plain, "traced vs plain")
	if len(tr.Tree()) == 0 {
		t.Fatal("tracer recorded nothing")
	}
}

// TestSupportCountedOncePerBody checks that a support threshold costs no
// counting pass of its own: the enumeration computes each body's support
// once and prunes on that value. Every relation holds (a,a), so every body
// joins and has positive support; min_sup = 0 then admits exactly the
// answers of the unthresholded query, over the same bodies, and the traced
// root must report the same number of semijoin counts.
func TestSupportCountedOncePerBody(t *testing.T) {
	db := relation.NewDatabase()
	for _, row := range [][3]string{
		{"p", "a", "a"}, {"p", "a", "b"}, {"p", "b", "c"},
		{"q", "a", "a"}, {"q", "b", "a"},
		{"s", "a", "a"}, {"s", "c", "b"}, {"s", "c", "c"},
	} {
		db.MustInsertNamed(row[0], row[1], row[2])
	}
	mq := core.MustParse("R(X,Z) <- P(X,Y), Q(Y,Z)")
	eng := NewEngine(db)
	run := func(th core.Thresholds) ([]core.Answer, string) {
		t.Helper()
		tr := obs.NewTracer()
		prep, err := eng.Prepare(mq, Options{Type: core.Type0, Thresholds: th, Tracer: tr})
		if err != nil {
			t.Fatal(err)
		}
		answers, err := prep.FindRules(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		fr := spansNamed(tr.Tree(), "findrules")
		if len(fr) != 1 {
			t.Fatalf("findrules roots: %d, want 1", len(fr))
		}
		return answers, fr[0].Attrs["semijoin_counts"]
	}
	all, allCounts := run(core.Thresholds{})
	sup0, sup0Counts := run(core.SingleIndex(core.Sup, rat.Zero))
	if len(all) == 0 {
		t.Fatal("no answers")
	}
	if got, want := fmt.Sprint(sup0), fmt.Sprint(all); got != want {
		t.Fatalf("min_sup = 0 answers differ from unthresholded ones:\n%s\nvs\n%s", got, want)
	}
	if sup0Counts != allCounts {
		t.Errorf("semijoin_counts with min_sup = 0: %s, without a threshold: %s; support must be counted once per body", sup0Counts, allCounts)
	}
}
