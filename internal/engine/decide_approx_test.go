package engine

import (
	"context"
	"fmt"
	"testing"

	"github.com/mqgo/metaquery/internal/core"
	"github.com/mqgo/metaquery/internal/gen"
	"github.com/mqgo/metaquery/internal/oracle"
	"github.com/mqgo/metaquery/internal/rat"
	"github.com/mqgo/metaquery/internal/relation"
)

// approxTestOptions is the diff-harness configuration: a generous budget so
// the small generated populations are fully covered (without-replacement
// exhaustion is exact), making the sweep deterministic.
func approxTestOptions(typ core.InstType, seed int64) Options {
	return Options{
		Type:   typ,
		Approx: ApproxOptions{Epsilon: 0.125, Delta: 0.125, MaxSamples: 4096, Seed: seed},
	}
}

// TestDecideApproxAgreesOnGenerated sweeps generated scenarios: with a
// budget covering the small generated populations, every sampled test either
// clears its interval correctly or degenerates to exact evaluation, so the
// approx verdict must equal DecideFirst's on every index and bound.
func TestDecideApproxAgreesOnGenerated(t *testing.T) {
	bounds := []rat.Rat{rat.Zero, rat.New(1, 4), rat.New(1, 2), rat.New(3, 4), rat.New(1, 1)}
	for _, shape := range gen.Shapes() {
		for _, seed := range []int64{2, 9} {
			t.Run(fmt.Sprintf("%s/seed%d", shape, seed), func(t *testing.T) {
				s, err := gen.NewScenario(seed, shape)
				if err != nil {
					t.Fatal(err)
				}
				prep, err := NewEngine(s.DB).Prepare(s.MQ, approxTestOptions(s.Type, seed))
				if err != nil {
					t.Fatal(err)
				}
				for _, ix := range core.AllIndices {
					for _, k := range bounds {
						wantYes, _, _, err := prep.DecideFirstStats(context.Background(), ix, k)
						if err != nil {
							t.Fatal(err)
						}
						gotYes, wit, st, err := prep.DecideApproxStats(context.Background(), ix, k)
						if err != nil {
							t.Fatal(err)
						}
						if gotYes != wantYes {
							t.Errorf("%s > %s: approx %v, exact %v (drawn %d, escalated %d)",
								ix, k, gotYes, wantYes, st.SamplesDrawn, st.ApproxEscalated)
						}
						if gotYes && wit == nil {
							t.Errorf("%s > %s: YES without witness", ix, k)
						}
						// A YES witness is exactly confirmed before being
						// returned: it must genuinely exceed k.
						if wit != nil {
							rule, err := wit.Apply(s.MQ)
							if err != nil {
								t.Fatalf("%s > %s: witness does not instantiate: %v", ix, k, err)
							}
							sup, cnf, cvr, err := oracle.Indices(s.DB, rule)
							if err != nil {
								t.Fatal(err)
							}
							v := sup
							switch ix {
							case core.Cnf:
								v = cnf
							case core.Cvr:
								v = cvr
							}
							if !v.Greater(k) {
								t.Errorf("%s > %s: witness rule %s has %s = %s", ix, k, rule, ix, v)
							}
						}
					}
				}
			})
		}
	}
}

// approxSamplingScenario builds a database big enough that the approx path
// genuinely samples: one 4000-row binary relation whose second column is
// "yes" on 90% of rows, and a unary head relation holding just "yes" — so
// cnf(R(Y) <- P(X,Y)) = 9/10 over a 4000-row body join.
func approxSamplingScenario(t *testing.T) (*relation.Database, *core.Metaquery) {
	t.Helper()
	db := relation.NewDatabase()
	for i := 0; i < 4000; i++ {
		v := "yes"
		if i%10 == 0 {
			v = "no"
		}
		db.MustInsertNamed("p", fmt.Sprintf("x%d", i), v)
	}
	db.MustInsertNamed("h", "yes")
	return db, core.MustParse("R(Y) <- P(X,Y)")
}

// TestDecideApproxSamplesAndSettles checks that on a population far above
// the sampling floor with the true fraction far from the threshold, the
// decider settles from a few samples: far fewer draws than the population,
// no escalation, and a verdict matching the exact path.
func TestDecideApproxSamplesAndSettles(t *testing.T) {
	db, mq := approxSamplingScenario(t)
	prep, err := NewEngine(db).Prepare(mq, Options{
		Type:   core.Type0,
		Approx: ApproxOptions{Epsilon: 0.1, Delta: 0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	// cnf = 9/10: clearly above 1/2 and clearly below — i.e. a NO at — 99/100.
	for _, c := range []struct {
		k    rat.Rat
		want bool
	}{
		{rat.New(1, 2), true},
		{rat.New(99, 100), false},
	} {
		yes, _, st, err := prep.DecideApproxStats(context.Background(), core.Cnf, c.k)
		if err != nil {
			t.Fatal(err)
		}
		if yes != c.want {
			t.Fatalf("cnf > %s: got %v, want %v", c.k, yes, c.want)
		}
		if st.SamplesDrawn == 0 {
			t.Fatalf("cnf > %s: no samples drawn on a 4000-row population", c.k)
		}
		if st.SamplesDrawn >= 4000 {
			t.Fatalf("cnf > %s: drew %d samples, no better than exact", c.k, st.SamplesDrawn)
		}
		if st.ApproxEscalated != 0 {
			t.Fatalf("cnf > %s: escalated %d times on a clear margin", c.k, st.ApproxEscalated)
		}
	}
}

// TestDecideApproxEscalatesInBand pins the threshold exactly at the true
// fraction: the interval can never clear it, so the decider must exhaust its
// budget, escalate to the exact kernels, and still answer correctly (9/10 >
// 9/10 is false under the strict comparison).
func TestDecideApproxEscalatesInBand(t *testing.T) {
	db, mq := approxSamplingScenario(t)
	prep, err := NewEngine(db).Prepare(mq, Options{
		Type:   core.Type0,
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
		t.Fatal("cnf > 9/10: approx decided YES, exact value is exactly 9/10")
	}
	if st.ApproxEscalated == 0 {
		t.Fatal("threshold at the true fraction never escalated")
	}
}

// TestDecideApproxDeterministic replays one decision twice on the same
// Prepared and once on a fresh engine: verdict and sampling effort must be
// byte-identical — all randomness derives from Options.Approx.Seed.
func TestDecideApproxDeterministic(t *testing.T) {
	db, mq := approxSamplingScenario(t)
	opt := Options{
		Type:   core.Type0,
		Approx: ApproxOptions{Epsilon: 0.05, Delta: 0.1, Seed: 42},
	}
	run := func(p *Prepared) (bool, int, int) {
		yes, _, st, err := p.DecideApproxStats(context.Background(), core.Cnf, rat.New(1, 2))
		if err != nil {
			t.Fatal(err)
		}
		return yes, st.SamplesDrawn, st.ApproxEscalated
	}
	prep, err := NewEngine(db).Prepare(mq, opt)
	if err != nil {
		t.Fatal(err)
	}
	y1, s1, e1 := run(prep)
	y2, s2, e2 := run(prep)
	prep2, err := NewEngine(db).Prepare(mq, opt)
	if err != nil {
		t.Fatal(err)
	}
	y3, s3, e3 := run(prep2)
	if y1 != y2 || s1 != s2 || e1 != e2 {
		t.Fatalf("rerun diverged: (%v,%d,%d) vs (%v,%d,%d)", y1, s1, e1, y2, s2, e2)
	}
	if y1 != y3 || s1 != s3 || e1 != e3 {
		t.Fatalf("fresh engine diverged: (%v,%d,%d) vs (%v,%d,%d)", y1, s1, e1, y3, s3, e3)
	}
}

// TestDecideApproxDisabledFallsBack checks the zero-value Approx path: the
// call is exactly DecideFirst — same verdict, no sampling counters.
func TestDecideApproxDisabledFallsBack(t *testing.T) {
	db, mq := approxSamplingScenario(t)
	prep, err := NewEngine(db).Prepare(mq, Options{Type: core.Type0})
	if err != nil {
		t.Fatal(err)
	}
	yes, _, st, err := prep.DecideApproxStats(context.Background(), core.Cnf, rat.New(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	wantYes, _, _, err := prep.DecideFirstStats(context.Background(), core.Cnf, rat.New(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if yes != wantYes {
		t.Fatalf("disabled approx: got %v, DecideFirst %v", yes, wantYes)
	}
	if st.SamplesDrawn != 0 || st.ApproxEscalated != 0 {
		t.Fatalf("disabled approx drew samples: drawn=%d escalated=%d", st.SamplesDrawn, st.ApproxEscalated)
	}
}

// TestPrepareRejectsBadApproxOptions: out-of-range ε/δ and a negative
// budget fail at Prepare time, like every other option.
func TestPrepareRejectsBadApproxOptions(t *testing.T) {
	db, mq := approxSamplingScenario(t)
	eng := NewEngine(db)
	for _, a := range []ApproxOptions{
		{Epsilon: 0.1},                             // delta missing
		{Delta: 0.1},                               // epsilon missing
		{Epsilon: 1.5, Delta: 0.1},                 // epsilon out of range
		{Epsilon: 0.1, Delta: -0.2},                // delta out of range
		{Epsilon: 0.1, Delta: 0.1, MaxSamples: -1}, // negative budget
	} {
		if _, err := eng.Prepare(mq, Options{Type: core.Type0, Approx: a}); err == nil {
			t.Errorf("Prepare accepted invalid approx options %+v", a)
		}
	}
	// And the valid triple prepares fine.
	if _, err := eng.Prepare(mq, Options{Type: core.Type0, Approx: ApproxOptions{Epsilon: 0.1, Delta: 0.1}}); err != nil {
		t.Errorf("Prepare rejected valid approx options: %v", err)
	}
}

// TestDecideApproxCvrProjectsProbeSet exercises the cvr orientation of the
// sampler — head rows drawn, body join probed — on a head population large
// enough to sample. The body join carries X, which the head table lacks, so
// the probe index is keyed on the shared column alone (a key-count index,
// not the body join's own row set). cvr = 80/400 = 1/5 here: the deterministic
// seeded run must reject k = 1/2 from samples and accept k = 1/20 (through
// the exact confirmation of the sampled accept, also covering the
// stats-free DecideApprox wrapper).
func TestDecideApproxCvrProjectsProbeSet(t *testing.T) {
	db := relation.NewDatabase()
	for i := 0; i < 4000; i++ {
		db.MustInsertNamed("p", fmt.Sprintf("x%d", i), fmt.Sprintf("v%d", i%80))
	}
	for i := 0; i < 400; i++ {
		db.MustInsertNamed("h", fmt.Sprintf("v%d", i))
	}
	prep, err := NewEngine(db).Prepare(core.MustParse("R(Y) <- P(X,Y)"), Options{
		Type:   core.Type0,
		Approx: ApproxOptions{Epsilon: 0.1, Delta: 0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	yes, _, st, err := prep.DecideApproxStats(context.Background(), core.Cvr, rat.New(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if yes {
		t.Fatal("cvr > 1/2 accepted; true cover is 1/5")
	}
	if st.SamplesDrawn == 0 {
		t.Fatal("no samples drawn on a 400-row head population")
	}
	yes, wit, err := prep.DecideApprox(context.Background(), core.Cvr, rat.New(1, 20))
	if err != nil {
		t.Fatal(err)
	}
	if !yes || wit == nil {
		t.Fatalf("cvr > 1/20: got yes=%v wit=%v, want a witness (true cover 1/5)", yes, wit)
	}
}
