package experiments

import (
	"context"
	"fmt"
	"time"

	"github.com/mqgo/metaquery/internal/core"
	"github.com/mqgo/metaquery/internal/engine"
	"github.com/mqgo/metaquery/internal/rat"
	"github.com/mqgo/metaquery/internal/workload"
)

// runE26 measures the ε–δ approximate decision path against the exact
// first-witness search on the workload sampling is built for: a 100k+-tuple
// database whose cnf decisions are NO-heavy. Four 25k-row binary relations
// instantiate the body of R(Y) <- P(X,Y) and six unary relations
// instantiate the head; exactly one body row in five carries a head value,
// so every (body, head) pair has confidence 1/5. A NO decision at k = 1/2
// or k = 3/4 therefore forces the exact engine to disprove all 24 pairs by
// scanning their 25k-row populations, while the sampler settles each pair
// after a few dozen draws (p̂ = 0.2 sits far outside the ε-band around k).
// The YES row at k = 1/10 checks the other regime: the sampler finds an
// Above verdict quickly and the exact confirmation of that single pair is
// all the full-scan work the approximate path ever pays.
//
// The reproduction check: every approximate verdict must equal the exact
// one (YES verdicts are exactly confirmed by construction, and 1/5 is far
// outside the ε-band around every k here, so NO verdicts carry no real δ
// risk), no pair may escalate, and the approximate path must be at least
// 2x faster than the exact one on both NO rows. Both legs run on the same
// Prepared after a warm pass, best-of-3 walls.
func runE26(ctx context.Context, quick bool) (*Result, error) {
	res := &Result{ID: "E26", Title: "Approximate decisions: sampling vs exact DecideFirst on a 100k-tuple NO-heavy cnf workload",
		Header: []string{"k", "exact", "approx", "exact-wall", "approx-wall", "speedup", "samples", "escalated"}}

	const (
		bodyRels = workload.DecideBodyRels
		rowsPer  = workload.DecideBodyRows
		headRels = workload.DecideHeadRels
		headVals = workload.DecideHeadVals
	)
	db := workload.DecideDB()
	total := bodyRels*rowsPer + headRels*headVals

	mq := core.MustParse("R(Y) <- P(X,Y)")
	eng := engine.NewEngine(db)
	prep, err := eng.Prepare(mq, engine.Options{
		Type:   core.Type0,
		Approx: engine.ApproxOptions{Epsilon: 0.1, Delta: 0.05},
	})
	if err != nil {
		return nil, err
	}
	// Warm pass: fills the node-join cache both legs share, so the timed
	// passes compare decision work rather than first-touch materialization.
	if _, _, _, err := prep.DecideFirstStats(ctx, core.Cnf, rat.New(1, 2)); err != nil {
		return nil, err
	}

	reps := 3
	if quick {
		reps = 2
	}
	bestOf := func(fn func() error) (time.Duration, error) {
		var best time.Duration
		for r := 0; r < reps; r++ {
			d, err := timeIt(fn)
			if err != nil {
				return 0, err
			}
			if r == 0 || d < best {
				best = d
			}
		}
		return best, nil
	}

	pass := true
	cases := []struct {
		k       rat.Rat
		wantYes bool
		noHeavy bool
	}{
		{rat.New(1, 2), false, true},
		{rat.New(3, 4), false, true},
		{rat.New(1, 10), true, false},
	}
	for _, c := range cases {
		var exactYes bool
		exactWall, err := bestOf(func() error {
			var err error
			exactYes, _, _, err = prep.DecideFirstStats(ctx, core.Cnf, c.k)
			return err
		})
		if err != nil {
			return nil, err
		}

		var apxYes bool
		var apxStats *engine.Stats
		apxWall, err := bestOf(func() error {
			var err error
			apxYes, _, apxStats, err = prep.DecideApproxStats(ctx, core.Cnf, c.k)
			return err
		})
		if err != nil {
			return nil, err
		}

		speedup := float64(exactWall) / float64(apxWall)
		if exactYes != apxYes || exactYes != c.wantYes {
			pass = false
			res.Notef("k=%s: verdicts exact=%v approx=%v want=%v", c.k, exactYes, apxYes, c.wantYes)
		}
		if apxStats.ApproxEscalated != 0 {
			pass = false
			res.Notef("k=%s: %d pair(s) escalated to exact evaluation; p=1/5 must clear every ε-band here", c.k, apxStats.ApproxEscalated)
		}
		if c.noHeavy && speedup < 2 {
			pass = false
			res.Notef("k=%s: approx %.2fx vs exact, want >= 2x on the NO-heavy rows", c.k, speedup)
		}
		res.AddRow(c.k.String(), verdictE26(exactYes), verdictE26(apxYes),
			fmtDur(exactWall), fmtDur(apxWall), fmt.Sprintf("%.1fx", speedup),
			fmt.Sprint(apxStats.SamplesDrawn), fmt.Sprint(apxStats.ApproxEscalated))
	}

	res.Notef("workload: %d tuples (%d binary relations x %d rows + %d unary head relations x %d values); cnf = 1/5 for all %d candidate pairs",
		total, bodyRels, rowsPer, headRels, headVals, bodyRels*headRels)
	res.Notef("approx: eps=0.1 delta=0.05, derived sample budget, fixed default seed; YES verdicts exactly confirmed before acceptance")
	res.Notef("pass = verdict agreement on every row, zero escalations, and >= 2x wall speedup on the NO-heavy rows (best-of-%d)", reps)
	res.Pass = pass
	return res, nil
}

func verdictE26(yes bool) string {
	if yes {
		return "YES"
	}
	return "NO"
}
