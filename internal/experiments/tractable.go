package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/mqgo/metaquery/internal/circuit"
	"github.com/mqgo/metaquery/internal/core"
	"github.com/mqgo/metaquery/internal/engine"
	"github.com/mqgo/metaquery/internal/rat"
	"github.com/mqgo/metaquery/internal/reductions"
	"github.com/mqgo/metaquery/internal/relation"
	"github.com/mqgo/metaquery/internal/workload"
)

// runE8 reproduces Theorem 3.32 / Figure 5 row 4: acyclic type-0 k=0
// metaquerying reduces to acyclic BCQ over DDB; the semijoin evaluation
// scales polynomially with the database while agreeing with the direct
// engine.
func runE8(ctx context.Context, quick bool) (*Result, error) {
	res := &Result{ID: "E8", Title: "Thm 3.32 / Fig.5 row 4: acyclic type-0 via acyclic BCQ on DDB",
		Header: []string{"|DB| tuples/rel", "direct", "reduction", "agree", "reduction time"}}
	mq := core.MustParse("P(X,Y) <- P(Y,Z), Q(Z,W)")
	if !mq.IsAcyclic() {
		return nil, fmt.Errorf("E8: metaquery should be acyclic")
	}
	sizes := []int{50, 100, 200, 400}
	if quick {
		sizes = []int{20, 40}
	}
	pass := true
	var times []time.Duration
	for _, n := range sizes {
		db := workload.Random{Relations: 3, Arity: 2, Tuples: n, Domain: n / 2, Seed: int64(n)}.Build()
		want, _, err := core.DecideContext(ctx, db, mq, core.Cnf, rat.Zero, core.Type0)
		if err != nil {
			return nil, err
		}
		red, err := reductions.BuildAcyclicCQ(db, mq, core.Cnf)
		if err != nil {
			return nil, err
		}
		var got bool
		dur, err := timeIt(func() error {
			var derr error
			got, derr = red.Decide()
			return derr
		})
		if err != nil {
			return nil, err
		}
		times = append(times, dur)
		agree := got == want
		pass = pass && agree
		res.AddRow(fmt.Sprint(n), fmt.Sprint(want), fmt.Sprint(got), boolMark(agree), fmtDur(dur))
	}
	if len(times) >= 2 && times[0] > 0 {
		growth := float64(times[len(times)-1]) / float64(times[0])
		sizeGrowth := float64(sizes[len(sizes)-1]) / float64(sizes[0])
		res.Notef("time growth %.1fx over a %.0fx database growth (polynomial shape; LOGCFL ⊆ P)", growth, sizeGrowth)
	}
	res.Pass = pass
	return res, nil
}

// runE13 reproduces Theorem 3.37 / Figure 5 row 10: the constructed AC0
// circuit family matches the engine and keeps constant depth / polynomial
// size as the domain grows.
func runE13(ctx context.Context, quick bool) (*Result, error) {
	res := &Result{ID: "E13", Title: "Thm 3.37 / Fig.5 row 10: AC0 circuits for k = 0",
		Header: []string{"domain", "depth", "gates", "inputs", "agreement (25 random DBs)"}}
	schema := circuit.Schema{{Name: "p", Arity: 2}, {Name: "q", Arity: 2}}
	mq := core.MustParse("R(X,Z) <- P(X,Y), Q(Y,Z)")
	domains := []int{2, 3, 4, 5}
	trials := 25
	if quick {
		domains = []int{2, 3}
		trials = 8
	}
	pass := true
	prevDepth := -1
	for _, d := range domains {
		circ, err := circuit.BuildExistsMQ(schema, d, mq, core.Cnf, core.Type0)
		if err != nil {
			return nil, err
		}
		agree := 0
		for seed := 0; seed < trials; seed++ {
			db := randomSchemaDB(int64(seed), d, 5)
			asn, err := circuit.Assignment(db, d)
			if err != nil {
				return nil, err
			}
			got := circ.Eval(asn) != 0
			want, _, err := core.DecideContext(ctx, db, mq, core.Cnf, rat.Zero, core.Type0)
			if err != nil {
				return nil, err
			}
			if got == want {
				agree++
			}
		}
		ok := agree == trials && (prevDepth < 0 || circ.Depth() == prevDepth)
		pass = pass && ok
		prevDepth = circ.Depth()
		res.AddRow(fmt.Sprint(d), fmt.Sprint(circ.Depth()), fmt.Sprint(circ.Size()),
			fmt.Sprint(circ.NumInputs()), fmt.Sprintf("%d/%d", agree, trials))
	}
	res.Notef("depth constant, size polynomial in the domain: the AC0 family shape of Theorem 3.37")
	res.Pass = pass
	return res, nil
}

// runE14 reproduces Theorem 3.38 / Figure 5 row 11: the TC0-style counting
// circuits for k > 0.
func runE14(ctx context.Context, quick bool) (*Result, error) {
	res := &Result{ID: "E14", Title: "Thm 3.38 / Fig.5 row 11: TC0 counting circuits for k > 0",
		Header: []string{"index", "domain", "depth", "gates", "agreement (20 random DBs)"}}
	schema := circuit.Schema{{Name: "p", Arity: 2}, {Name: "q", Arity: 2}}
	mq := core.MustParse("R(X,Z) <- P(X,Y), Q(Y,Z)")
	k := rat.New(1, 2)
	domains := []int{2, 3, 4}
	trials := 20
	if quick {
		domains = []int{2, 3}
		trials = 6
	}
	pass := true
	for _, ix := range core.AllIndices {
		prevDepth := -1
		for _, d := range domains {
			circ, err := circuit.BuildThresholdMQ(schema, d, mq, ix, k, core.Type0)
			if err != nil {
				return nil, err
			}
			agree := 0
			for seed := 0; seed < trials; seed++ {
				db := randomSchemaDB(int64(seed)*13+1, d, 5)
				asn, err := circuit.Assignment(db, d)
				if err != nil {
					return nil, err
				}
				got := circ.Eval(asn) != 0
				want, _, err := core.DecideContext(ctx, db, mq, ix, k, core.Type0)
				if err != nil {
					return nil, err
				}
				if got == want {
					agree++
				}
			}
			ok := agree == trials && (prevDepth < 0 || circ.Depth() == prevDepth)
			pass = pass && ok
			prevDepth = circ.Depth()
			res.AddRow(ix.String(), fmt.Sprint(d), fmt.Sprint(circ.Depth()),
				fmt.Sprint(circ.Size()), fmt.Sprintf("%d/%d", agree, trials))
		}
	}
	res.Notef("comparator over counting subcircuits realizes b·|Qn| > a·|Qd| (Lemma 3.39)")
	res.Pass = pass
	return res, nil
}

// runE17 reproduces Theorem 4.12: computing sup(r) scales as d^c (up to the
// log factor) where c is the hypertree width of the body. The fitted
// exponent of the time curve grows with the width.
func runE17(ctx context.Context, quick bool) (*Result, error) {
	res := &Result{ID: "E17", Title: "Thm 4.12: sup(r) in d^c log d for hypertree width c",
		Header: []string{"width c", "d", "sup (Thm 4.12 algo)", "agrees with naive", "fitted exponent"}}
	sizes := []int{300, 600, 1200, 2400}
	if quick {
		sizes = []int{150, 300}
	}
	pass := true
	for c := 1; c <= 2; c++ {
		var times []float64
		for _, d := range sizes {
			db, rule := workload.WidthWorkload(c, d, int(math.Sqrt(float64(d))*3), int64(c*1000+d))
			// Warm-up run to stabilize allocator effects.
			if _, err := engine.SupportOfRule(db, rule); err != nil {
				return nil, err
			}
			var fast rat.Rat
			dur, err := timeIt(func() error {
				var serr error
				fast, serr = engine.SupportOfRule(db, rule)
				return serr
			})
			if err != nil {
				return nil, err
			}
			slow, err := core.Support(db, rule)
			if err != nil {
				return nil, err
			}
			agree := fast.Equal(slow)
			pass = pass && agree
			times = append(times, float64(dur))
			res.AddRow(fmt.Sprint(c), fmt.Sprint(d), fmtDur(dur), boolMark(agree), "")
		}
		exp := fitExponent(sizes, times)
		res.Rows[len(res.Rows)-1][4] = fmt.Sprintf("%.2f", exp)
		// With >= 3 sizes the fitted exponent must respect the d^c log d
		// shape (log factors and constant overheads allowed). Quick runs
		// with 2 points are smoke tests only.
		if len(sizes) >= 3 && exp > float64(c)+1.5 {
			pass = false
			res.Notef("width %d exponent %.2f exceeds d^%d log d shape", c, exp, c)
		}
	}
	res.Notef("exponent fitted from log-log regression of the Theorem 4.12 support algorithm's time vs d")
	res.Pass = pass
	return res, nil
}

// fitExponent performs log-log least squares of times against sizes.
func fitExponent(sizes []int, times []float64) float64 {
	n := float64(len(sizes))
	var sx, sy, sxx, sxy float64
	for i := range sizes {
		x := math.Log(float64(sizes[i]))
		y := math.Log(times[i] + 1)
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}

// runE18 reproduces Figure 4: findRules equals the naive engine and the
// support-pruning semijoin machinery pays off on selective workloads.
func runE18(ctx context.Context, quick bool) (*Result, error) {
	res := &Result{ID: "E18", Title: "Figure 4: findRules vs naive enumeration",
		Header: []string{"workload", "answers", "naive time", "findRules time", "speedup", "equal"}}
	sizes := []int{60, 120}
	if quick {
		sizes = []int{30}
	}
	pass := true
	for _, n := range sizes {
		db := workload.Random{Relations: 3, Arity: 2, Tuples: n, Domain: 12, Seed: int64(n)}.Build()
		mq := workload.ChainMQ(2)
		th := core.AllAbove(rat.New(1, 10), rat.Zero, rat.Zero)
		var naive []core.Answer
		naiveDur, err := timeIt(func() error {
			var nerr error
			naive, nerr = core.NaiveAnswersContext(ctx, db, mq, core.Type0, th)
			return nerr
		})
		if err != nil {
			return nil, err
		}
		var fast []core.Answer
		fastDur, err := timeIt(func() error {
			var ferr error
			fast, _, ferr = engine.NewEngine(db).FindRulesStats(ctx, mq, engine.Options{Type: core.Type0, Thresholds: th})
			return ferr
		})
		if err != nil {
			return nil, err
		}
		equal := len(fast) == len(naive)
		for i := range fast {
			if !equal {
				break
			}
			if fast[i].Rule.String() != naive[i].Rule.String() ||
				!fast[i].Sup.Equal(naive[i].Sup) || !fast[i].Cnf.Equal(naive[i].Cnf) || !fast[i].Cvr.Equal(naive[i].Cvr) {
				equal = false
			}
		}
		pass = pass && equal
		speedup := "n/a"
		if fastDur > 0 {
			speedup = fmt.Sprintf("%.1fx", float64(naiveDur)/float64(fastDur))
		}
		res.AddRow(fmt.Sprintf("chain m=2, %d tuples/rel", n), fmt.Sprint(len(fast)),
			fmtDur(naiveDur), fmtDur(fastDur), speedup, boolMark(equal))
	}
	res.Pass = pass
	return res, nil
}

// runE19 reproduces the closing analysis of Section 4: instantiation-space
// sizes n^m' for types 0/1 and the larger type-2 space.
func runE19(ctx context.Context, _ bool) (*Result, error) {
	res := &Result{ID: "E19", Title: "§4 closing analysis: instantiation-space growth",
		Header: []string{"relations n", "patterns m", "type-0", "type-1", "type-2"}}
	mqByM := map[int]*core.Metaquery{
		2: workload.MQ4(),
		3: core.MustParse("R(X,W) <- P(X,Y), Q(Y,Z), S(Z,W)"),
	}
	pass := true
	for _, nRel := range []int{2, 3} {
		for _, m := range []int{2, 3} {
			db := workload.Random{Relations: nRel, Arity: 2, Tuples: 3, Domain: 4, Seed: 1}.Build()
			mq := mqByM[m]
			counts := map[core.InstType]int{}
			for _, typ := range []core.InstType{core.Type0, core.Type1, core.Type2} {
				c, err := core.CountInstantiations(db, mq, typ)
				if err != nil {
					return nil, err
				}
				counts[typ] = c
			}
			// Expected: type-0 = n^(m+1) (head too), type-1 = (2n)^(m+1)
			// for binary patterns over binary relations; type-2 equals
			// type-1 here because all arities coincide.
			want0 := pow(nRel, m+1)
			want1 := pow(2*nRel, m+1)
			ok := counts[core.Type0] == want0 && counts[core.Type1] == want1 && counts[core.Type2] == want1
			pass = pass && ok
			res.AddRow(fmt.Sprint(nRel), fmt.Sprint(m),
				fmt.Sprintf("%d (want %d)", counts[core.Type0], want0),
				fmt.Sprintf("%d (want %d)", counts[core.Type1], want1),
				fmt.Sprint(counts[core.Type2]))
		}
	}
	res.Notef("binary patterns over n binary relations: n per pattern (type-0), 2n with permutations (types 1-2)")
	res.Pass = pass
	return res, nil
}

func pow(b, e int) int {
	out := 1
	for i := 0; i < e; i++ {
		out *= b
	}
	return out
}

// runE20 documents the two Figure 5 rows marked Open (acyclic, k > 0,
// type-0 for cvr/sup; acyclic cnf): the paper leaves their exact complexity
// open; we measure our engine's behavior on them without claiming a bound.
func runE20(ctx context.Context, quick bool) (*Result, error) {
	res := &Result{ID: "E20", Title: "Fig.5 rows 6/8 (Open): acyclic type-0 thresholds, measured only",
		Header: []string{"index", "|DB| tuples/rel", "time", "answers"}}
	sizes := []int{50, 100, 200}
	if quick {
		sizes = []int{25, 50}
	}
	mq := core.MustParse("P(X,Y) <- P(Y,Z), Q(Z,W)")
	for _, ix := range []core.Index{core.Sup, core.Cvr, core.Cnf} {
		for _, n := range sizes {
			db := workload.Random{Relations: 3, Arity: 2, Tuples: n, Domain: n / 3, Seed: int64(n)}.Build()
			var count int
			dur, err := timeIt(func() error {
				answers, _, ferr := engine.NewEngine(db).FindRulesStats(ctx, mq, engine.Options{
					Type:       core.Type0,
					Thresholds: core.SingleIndex(ix, rat.New(1, 4)),
				})
				count = len(answers)
				return ferr
			})
			if err != nil {
				return nil, err
			}
			res.AddRow(ix.String(), fmt.Sprint(n), fmtDur(dur), fmt.Sprint(count))
		}
	}
	res.Notef("the paper leaves the combined complexity of these rows open; these timings are observations, not bounds")
	res.Pass = true
	return res, nil
}

// randomSchemaDB builds a database over relations {p, q} (binary) with
// constants "0".."d-1" interned in order, so dictionary indices equal
// domain elements as the circuit encoding requires.
func randomSchemaDB(seed int64, d, maxTuples int) *relation.Database {
	rng := rand.New(rand.NewSource(seed))
	db := relation.NewDatabase()
	for i := 0; i < d; i++ {
		db.Dict().Intern(fmt.Sprint(i))
	}
	for _, name := range []string{"p", "q"} {
		db.MustAddRelation(name, 2)
		for i := 0; i < rng.Intn(maxTuples+1); i++ {
			db.MustInsertNamed(name, fmt.Sprint(rng.Intn(d)), fmt.Sprint(rng.Intn(d)))
		}
	}
	return db
}
