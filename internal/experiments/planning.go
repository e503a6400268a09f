package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"github.com/mqgo/metaquery/internal/core"
	"github.com/mqgo/metaquery/internal/gen"
	"github.com/mqgo/metaquery/internal/stats"
)

// runE22 benchmarks the cost-based join planner against the size-greedy
// baseline on a skewed/uniform workload pair. The databases come from one
// gen.DBConfig differing only in the Skew knob: the skewed one
// concentrates heavy-hitter values in a different column per relation
// (gen.DBConfig.SkewCols — here column 1 of r0/r2, column 0 of r1), the
// regime where cardinality ranking and selectivity ranking diverge:
// single-column skew barely changes relation sizes under set semantics,
// so the relations look interchangeable to size-based ordering, while a
// join pairing two skewed columns on one variable explodes — exactly what
// the per-column distinct counts reveal and the cost-based order avoids.
//
// The measured path is core.Evaluator.Indices over every type-0
// instantiation of a 3-pattern chain metaquery: unlike the engine's
// hypertree search, these body joins are not semijoin-reduced first
// (Yannakakis reduction largely neutralizes join order), so the evaluator
// layer is where plan quality shows. Both evaluators share nothing; each
// is warmed over the full rule set once, so the timed second pass
// compares steady-state join execution over cached atom tables, not cache
// fills. The reproduction check is exact index equality between the
// planners on every rule; the recorded wall/alloc columns document the
// skew win.
func runE22(ctx context.Context, quick bool) (*Result, error) {
	res := &Result{ID: "E22", Title: "Cost-based vs. greedy join ordering on skewed and uniform workloads",
		Header: []string{"workload", "planner", "wall", "allocs", "alloc-bytes", "rules"}}

	tuples := 600
	if quick {
		tuples = 250
	}
	base := gen.DBConfig{
		Relations: 3, MinArity: 2, MaxArity: 2,
		MinTuples: tuples, MaxTuples: tuples,
		Domain: 600, SkewCols: []int{1, 0, 1},
	}
	mqCfg := gen.MQConfig{BodyPatterns: 3, PatternArity: 2}

	type measured struct {
		indices [][3]string
		wall    time.Duration
		allocs  uint64
		bytes   uint64
	}
	pass := true
	var skewCost, skewGreedy *measured

	for _, w := range []struct {
		name string
		skew float64
	}{
		{"skewed", 10},
		{"uniform", 0},
	} {
		cfg := base
		cfg.Skew = w.skew
		rng := rand.New(rand.NewSource(22))
		db := cfg.Generate(rng)
		mq, err := mqCfg.Generate(rng, db)
		if err != nil {
			return nil, err
		}
		st := stats.Collect(db)

		var runs [2]*measured
		for i, p := range []struct {
			name string
			ev   *core.Evaluator
		}{
			{"cost", core.NewEvaluatorStats(db, st)},
			{"greedy", core.NewEvaluator(db)},
		} {
			evalAll := func() (*measured, error) {
				m := &measured{}
				err := core.ForEachInstantiationContext(ctx, db, mq, core.Type0, func(inst *core.Instantiation) (bool, error) {
					rule, err := inst.Apply(mq)
					if err != nil {
						return false, err
					}
					sup, cnf, cvr, err := p.ev.Indices(rule)
					if err != nil {
						return false, err
					}
					m.indices = append(m.indices, [3]string{sup.String(), cnf.String(), cvr.String()})
					return true, nil
				})
				return m, err
			}
			// Warm pass: fills the evaluator's atom tables and estimates,
			// so the timed pass measures join execution only.
			if _, err := evalAll(); err != nil {
				return nil, err
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			m, err := evalAll()
			m.wall = time.Since(start)
			runtime.ReadMemStats(&after)
			if err != nil {
				return nil, err
			}
			m.allocs = after.Mallocs - before.Mallocs
			m.bytes = after.TotalAlloc - before.TotalAlloc
			runs[i] = m
			res.AddRow(w.name, p.name, fmtDur(m.wall), fmt.Sprint(m.allocs),
				fmt.Sprint(m.bytes), fmt.Sprint(len(m.indices)))
		}

		if !sameIndices(runs[0].indices, runs[1].indices) {
			pass = false
			res.Notef("%s: cost-based and greedy planners disagree on index values", w.name)
		}
		if w.name == "skewed" {
			skewCost, skewGreedy = runs[0], runs[1]
		}
	}
	if skewCost != nil && skewGreedy != nil {
		res.Notef("skewed: cost-based %.2fx wall, %.2fx allocs, %.2fx alloc-bytes of greedy (lower is better)",
			float64(skewCost.wall)/float64(skewGreedy.wall),
			float64(skewCost.allocs)/float64(skewGreedy.allocs),
			float64(skewCost.bytes)/float64(skewGreedy.bytes))
	}
	res.Notef("measured path: core.Evaluator.Indices (unreduced body joins) over every type-0 rule; evaluators warmed once before timing")
	res.Pass = pass
	return res, nil
}

// sameIndices compares the per-rule exact index triples of two runs.
func sameIndices(a, b [][3]string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
