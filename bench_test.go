// Benchmarks regenerating the measurable shape of every row of Figure 5
// (the paper's complexity summary) and of the Section 4 algorithm bounds.
// Each benchmark is named for the artifact it reproduces; EXPERIMENTS.md
// maps benchmark output to the paper's claims. Absolute times are
// machine-dependent; the shapes (who wins, how the curves grow) are what
// the reproduction asserts.
package metaquery

import (
	"context"
	"fmt"
	"testing"

	"github.com/mqgo/metaquery/internal/circuit"
	"github.com/mqgo/metaquery/internal/core"
	"github.com/mqgo/metaquery/internal/engine"
	"github.com/mqgo/metaquery/internal/graphs"
	"github.com/mqgo/metaquery/internal/logic"
	"github.com/mqgo/metaquery/internal/rat"
	"github.com/mqgo/metaquery/internal/reductions"
	"github.com/mqgo/metaquery/internal/workload"

	mrand "math/rand"
)

// --- Worked examples (Figures 1-2) ---------------------------------------

// BenchmarkFig1DB1 answers the running metaquery (4) on the Figure 1
// database under each instantiation type.
func BenchmarkFig1DB1(b *testing.B) {
	db := workload.DB1()
	mq := workload.MQ4()
	for _, typ := range []core.InstType{core.Type0, core.Type1, core.Type2} {
		b.Run(typ.String(), func(b *testing.B) {
			opt := engine.Options{Type: typ, Thresholds: core.AllAbove(rat.New(1, 2), rat.New(1, 2), rat.New(1, 2))}
			for i := 0; i < b.N; i++ {
				if _, _, err := engine.NewEngine(db).FindRulesStats(context.Background(), mq, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 5 row 1 (Theorem 3.21): NP-complete, k = 0 -------------------

// BenchmarkFig5Row1ThreeCol runs the 3-COLORING reduction end to end for
// growing graph sizes; the exponential growth of the search demonstrates
// the hardness-side shape.
func BenchmarkFig5Row1ThreeCol(b *testing.B) {
	for _, n := range []int{4, 5, 6, 7} {
		rng := mrand.New(mrand.NewSource(int64(n)))
		g := graphs.Random(rng, n, 0.5)
		if len(g.Edges) == 0 {
			g = graphs.Cycle(n)
		}
		red, err := reductions.BuildThreeColoring(g)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.Decide(red.DB, red.MQ, core.Sup, rat.Zero, core.Type0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 5 row 2 (Theorem 3.24): NP, cvr/sup with k > 0 ---------------

// BenchmarkFig5Row2Threshold decides the support-threshold problem on the
// 3-COLORING instance, where the certificate additionally carries counts.
func BenchmarkFig5Row2Threshold(b *testing.B) {
	red, err := reductions.BuildThreeColoring(graphs.Cycle(6))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, _, err := core.Decide(red.DB, red.MQ, core.Sup, rat.New(1, 2), core.Type0); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 5 row 3 (Theorems 3.28/3.29): NP^PP, confidence --------------

// BenchmarkFig5Row3Confidence runs the ∃C-3SAT reduction (the counting-
// heavy confidence case) for both construction variants.
func BenchmarkFig5Row3Confidence(b *testing.B) {
	rng := mrand.New(mrand.NewSource(9))
	f := logic.Random3CNF(rng, 4, 3)
	inst := &logic.ExistsCountInstance{F: f, Pi: []int{0, 1}, Chi: []int{2, 3}, K: 2}
	for _, v := range []struct {
		name    string
		variant reductions.ExistsCSATVariant
		typ     core.InstType
	}{
		{"type0", reductions.VariantType0, core.Type0},
		{"type1", reductions.VariantType12, core.Type1},
		{"type2", reductions.VariantType12, core.Type2},
	} {
		red, err := reductions.BuildExistsCSAT(inst, v.variant)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.Decide(red.DB, red.MQ, core.Cnf, red.K, v.typ); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 5 row 4 (Theorem 3.32): LOGCFL, acyclic type-0 k=0 -----------

// BenchmarkFig5Row4Acyclic evaluates the acyclic metaquery through the
// Theorem 3.32 reduction (semijoin programs, no join materialization); the
// polynomial growth with |DB| is the tractability shape.
func BenchmarkFig5Row4Acyclic(b *testing.B) {
	mq := core.MustParse("P(X,Y) <- P(Y,Z), Q(Z,W)")
	for _, n := range []int{100, 200, 400, 800} {
		db := workload.Random{Relations: 3, Arity: 2, Tuples: n, Domain: n / 2, Seed: int64(n)}.Build()
		red, err := reductions.BuildAcyclicCQ(db, mq, core.Cnf)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("tuples=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := red.Decide(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 5 row 5 (Theorem 3.33): acyclic, types 1-2: NP-complete ------

// BenchmarkFig5Row5HamPath runs the Hamiltonian-path reduction; the
// factorial candidate space of the permuting pattern N drives the growth.
func BenchmarkFig5Row5HamPath(b *testing.B) {
	for _, n := range []int{4, 5, 6} {
		g := graphs.Cycle(n)
		red, err := reductions.BuildHamPath(g)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.Decide(red.DB, red.MQ, core.Sup, rat.Zero, core.Type1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 5 row 7 (Theorem 3.34) ---------------------------------------

// BenchmarkFig5Row7AcyclicThreshold decides the cover-threshold problem on
// the acyclic HAMPATH metaquery.
func BenchmarkFig5Row7AcyclicThreshold(b *testing.B) {
	red, err := reductions.BuildHamPath(graphs.Cycle(5))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, _, err := core.Decide(red.DB, red.MQ, core.Cvr, rat.New(1, 2), core.Type1); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 5 row 9 (Theorem 3.35): semi-acyclic type-0 ------------------

// BenchmarkFig5Row9SemiAcyclic runs the semi-acyclic 3-COLORING reduction;
// the per-node predicate variables make the instantiation space 3^|V|.
func BenchmarkFig5Row9SemiAcyclic(b *testing.B) {
	for _, n := range []int{3, 4, 5} {
		red, err := reductions.BuildSemiAcyclicThreeCol(graphs.Cycle(n))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.Decide(red.DB, red.MQ, core.Sup, rat.Zero, core.Type0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 5 rows 10-11 (Theorems 3.37/3.38): data complexity -----------

// BenchmarkFig5Row10AC0 builds and evaluates the Theorem 3.37 AC0 circuit
// family across domain sizes: depth stays constant, size grows
// polynomially, evaluation stays fast.
func BenchmarkFig5Row10AC0(b *testing.B) {
	schema := circuit.Schema{{Name: "p", Arity: 2}, {Name: "q", Arity: 2}}
	mq := core.MustParse("R(X,Z) <- P(X,Y), Q(Y,Z)")
	for _, d := range []int{2, 3, 4, 5} {
		circ, err := circuit.BuildExistsMQ(schema, d, mq, core.Cnf, core.Type0)
		if err != nil {
			b.Fatal(err)
		}
		db := schemaDB(d, d*d/2)
		asn, err := circuit.Assignment(db, d)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("domain=%d/gates=%d/depth=%d", d, circ.Size(), circ.Depth()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				circ.Eval(asn)
			}
		})
	}
}

// BenchmarkFig5Row11TC0 does the same for the counting circuits of
// Theorem 3.38 at threshold 1/2.
func BenchmarkFig5Row11TC0(b *testing.B) {
	schema := circuit.Schema{{Name: "p", Arity: 2}, {Name: "q", Arity: 2}}
	mq := core.MustParse("R(X,Z) <- P(X,Y), Q(Y,Z)")
	for _, d := range []int{2, 3, 4} {
		circ, err := circuit.BuildThresholdMQ(schema, d, mq, core.Cnf, rat.New(1, 2), core.Type0)
		if err != nil {
			b.Fatal(err)
		}
		db := schemaDB(d, d*d/2)
		asn, err := circuit.Assignment(db, d)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("domain=%d/gates=%d/depth=%d", d, circ.Size(), circ.Depth()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				circ.Eval(asn)
			}
		})
	}
}

// schemaDB builds a {p,q} database over constants 0..d-1.
func schemaDB(d, tuples int) *Database {
	db := NewDatabase()
	for i := 0; i < d; i++ {
		db.Dict().Intern(fmt.Sprint(i))
	}
	rng := mrand.New(mrand.NewSource(17))
	for _, name := range []string{"p", "q"} {
		db.MustAddRelation(name, 2)
		for i := 0; i < tuples; i++ {
			db.MustInsertNamed(name, fmt.Sprint(rng.Intn(d)), fmt.Sprint(rng.Intn(d)))
		}
	}
	return db
}

// --- Theorem 4.12: support in d^c log d ----------------------------------

// BenchmarkThm412WidthScaling measures the hypertree-guided support
// computation across database sizes for body widths 1 and 2: doubling d
// should roughly double width-1 cost and quadruple width-2 cost.
func BenchmarkThm412WidthScaling(b *testing.B) {
	for c := 1; c <= 2; c++ {
		for _, d := range []int{250, 500, 1000} {
			db, rule := workload.WidthWorkload(c, d, d/8+4, int64(c*7+d))
			b.Run(fmt.Sprintf("width=%d/d=%d", c, d), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := engine.SupportOfRule(db, rule); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- Figure 4: findRules vs naive ----------------------------------------

// BenchmarkFindRulesVsNaive compares the Figure 4 engine against the naive
// enumerator on a selective chain workload.
func BenchmarkFindRulesVsNaive(b *testing.B) {
	db := workload.ChainDB(3, 25, 100, 5)
	mq := workload.ChainMQ(3)
	th := core.AllAbove(rat.New(1, 10), rat.Zero, rat.Zero)
	b.Run("findRules", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := engine.NewEngine(db).FindRulesStats(context.Background(), mq, engine.Options{Type: core.Type0, Thresholds: th}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.NaiveAnswers(db, mq, core.Type0, th); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- §4 closing analysis: instantiation-space growth ---------------------

// BenchmarkInstantiationSpace enumerates the full instantiation space per
// type, the n^(m-1) vs (n·b^a)^(m-1) analysis at the end of Section 4.
func BenchmarkInstantiationSpace(b *testing.B) {
	db := workload.Random{Relations: 4, Arity: 2, Tuples: 2, Domain: 3, Seed: 2}.Build()
	mq := workload.MQ4()
	for _, typ := range []core.InstType{core.Type0, core.Type1, core.Type2} {
		b.Run(typ.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.CountInstantiations(db, mq, typ); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPreparedReuse measures what the Engine/Prepared session API
// amortizes: N executions of one Prepared metaquery (database indices,
// query analysis and node joins computed once, then shared) against N cold
// FindRules calls that redo the preprocessing every time.
func BenchmarkPreparedReuse(b *testing.B) {
	db := workload.ChainDB(3, 25, 100, 5)
	mq := workload.ChainMQ(3)
	opt := engine.Options{Type: core.Type0, Thresholds: core.AllAbove(rat.New(1, 10), rat.Zero, rat.Zero)}
	ctx := context.Background()
	b.Run("prepared", func(b *testing.B) {
		prep, err := engine.NewEngine(db).Prepare(mq, opt)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := prep.FindRules(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := engine.NewEngine(db).FindRulesStats(context.Background(), mq, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStreamFirstAnswer measures the early-exit benefit of streaming:
// taking only the first answer versus materializing the full answer set.
func BenchmarkStreamFirstAnswer(b *testing.B) {
	db := workload.ChainDB(3, 25, 100, 5)
	mq := workload.ChainMQ(3)
	opt := engine.Options{Type: core.Type0}
	ctx := context.Background()
	prep, err := engine.NewEngine(db).Prepare(mq, opt)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("first-streamed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, err := range prep.Stream(ctx) {
				if err != nil {
					b.Fatal(err)
				}
				break
			}
		}
	})
	b.Run("full-set", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := prep.FindRules(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkParallelStream drains the full merged answer stream of one
// warm Prepared at increasing worker counts: the sequential path at
// workers=1 against the sharded enumeration (first-node candidates
// partitioned across a goroutine pool feeding one channel). On a
// multi-core box the wall time steps down with workers; the allocs
// column tracks the pooled steady state either way.
func BenchmarkParallelStream(b *testing.B) {
	db := workload.ChainDB(3, 25, 100, 5)
	mq := workload.ChainMQ(3)
	th := core.AllAbove(rat.New(1, 10), rat.Zero, rat.Zero)
	ctx := context.Background()
	eng := engine.NewEngine(db)
	for _, workers := range []int{1, 2, 4, 8} {
		prep, err := eng.Prepare(mq, engine.Options{Type: core.Type0, Thresholds: th, Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		// Warm pass fills the node-join cache the workers share.
		for _, err := range prep.Stream(ctx) {
			if err != nil {
				b.Fatal(err)
			}
		}
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, err := range prep.Stream(ctx) {
					if err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkDecideWorkload runs exact DecideFirst on the decision workload
// (workload.DecideDB: four 25k-row binary bodies, six 97-row unary heads,
// R(Y) <- P(X,Y)), where nearly all the work is counting semijoin
// cardinalities between a body and its heads. Every (body, head) pair has
// confidence 1/5, so cnf at k = 1/2 is a NO that counts all 24 pairs and
// cnf at k = 1/10 a YES on the first pair; sup at k = 1/2 is a YES whose
// support fraction, |J(body) ⋉ p_i| / |p_i|, is counted on a body alone.
// Each runs sequentially and on two workers, after a warm pass that fills
// the shared atom-table cache.
func BenchmarkDecideWorkload(b *testing.B) {
	eng := engine.NewEngine(workload.DecideDB())
	mq := core.MustParse("R(Y) <- P(X,Y)")
	ctx := context.Background()
	for _, c := range []struct {
		name    string
		ix      core.Index
		k       rat.Rat
		wantYes bool
	}{
		{"cnf-no", core.Cnf, rat.New(1, 2), false},
		{"cnf-yes", core.Cnf, rat.New(1, 10), true},
		{"sup", core.Sup, rat.New(1, 2), true},
	} {
		for _, workers := range []int{1, 2} {
			prep, err := eng.Prepare(mq, engine.Options{Type: core.Type0, Workers: workers})
			if err != nil {
				b.Fatal(err)
			}
			if yes, _, err := prep.DecideFirst(ctx, c.ix, c.k); err != nil || yes != c.wantYes {
				b.Fatalf("%s: DecideFirst = %v, %v; want %v", c.name, yes, err, c.wantYes)
			}
			b.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, err := prep.DecideFirst(ctx, c.ix, c.k); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkDecideFirst measures the dedicated first-witness decision path
// against the deprecated FindRules-with-Limit-1 idiom, with YES and NO
// verdicts benchmarked separately (the ROADMAP "decider asymmetry": a NO
// answered through enumeration pays the full materialize-then-filter
// cost). k = 0 is a YES on this workload for every index; k = 1 is a
// certain NO under the strict comparison, forcing both paths to exhaust
// the body space. The approx rows run the same decisions through the
// sampled ε–δ fraction test (DecideApprox at ε = δ = 0.1), pinning the
// sampled path's allocations next to the exact one's.
func BenchmarkDecideFirst(b *testing.B) {
	db := workload.Random{Relations: 5, Arity: 2, Tuples: 40, Domain: 12, Seed: 6}.Build()
	mq := workload.MQ4()
	ctx := context.Background()
	eng := engine.NewEngine(db)
	for _, c := range []struct {
		name string
		ix   core.Index
		k    rat.Rat
	}{
		{"yes/sup", core.Sup, rat.Zero},
		{"yes/cnf", core.Cnf, rat.Zero},
		{"yes/cvr", core.Cvr, rat.Zero},
		{"no/sup", core.Sup, rat.New(1, 1)},
		{"no/cnf", core.Cnf, rat.New(1, 1)},
		{"no/cvr", core.Cvr, rat.New(1, 1)},
	} {
		prep, err := eng.Prepare(mq, engine.Options{Type: core.Type0})
		if err != nil {
			b.Fatal(err)
		}
		limPrep, err := eng.Prepare(mq, engine.Options{Type: core.Type0, Thresholds: core.SingleIndex(c.ix, c.k), Limit: 1})
		if err != nil {
			b.Fatal(err)
		}
		apxPrep, err := eng.Prepare(mq, engine.Options{Type: core.Type0, Approx: engine.ApproxOptions{Epsilon: 0.1, Delta: 0.1}})
		if err != nil {
			b.Fatal(err)
		}
		// Warm every path once so no benchmark pays the shared
		// engine-level cache fills (atom tables, node joins) for another.
		if _, _, err := prep.DecideFirst(ctx, c.ix, c.k); err != nil {
			b.Fatal(err)
		}
		if _, err := limPrep.FindRules(ctx); err != nil {
			b.Fatal(err)
		}
		if _, _, err := apxPrep.DecideApprox(ctx, c.ix, c.k); err != nil {
			b.Fatal(err)
		}
		b.Run(c.name+"/decide-first", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := prep.DecideFirst(ctx, c.ix, c.k); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/limit-1", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := limPrep.FindRules(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/approx", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := apxPrep.DecideApprox(ctx, c.ix, c.k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
