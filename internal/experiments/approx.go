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
// 2x faster than the exact one on both NO rows. The exact leg is timed on
// a cold pair-count memo: the engine memoizes each (head, body) count of
// two stored relations for the whole epoch, so a repeated exact decision
// costs a few map lookups and would measure the memo, not counting. Each
// repetition therefore builds a fresh engine and warms its atom tables
// with an approximate pass (sampling never fills the memo), then times the
// exact leg, the approximate leg, and an ungated second exact decision on
// the now-warm memo (exact-warm). Walls are best-of-3.
func runE26(ctx context.Context, quick bool) (*Result, error) {
	res := &Result{ID: "E26", Title: "Approximate decisions: sampling vs exact DecideFirst on a 100k-tuple NO-heavy cnf workload",
		Header: []string{"k", "exact", "approx", "exact-wall", "approx-wall", "speedup", "samples", "escalated", "exact-warm"}}

	const (
		bodyRels = workload.DecideBodyRels
		rowsPer  = workload.DecideBodyRows
		headRels = workload.DecideHeadRels
		headVals = workload.DecideHeadVals
	)
	db := workload.DecideDB()
	total := bodyRels*rowsPer + headRels*headVals

	mq := core.MustParse("R(Y) <- P(X,Y)")
	opt := engine.Options{
		Type:   core.Type0,
		Approx: engine.ApproxOptions{Epsilon: 0.1, Delta: 0.05},
	}

	reps := 3
	if quick {
		reps = 2
	}
	type walls struct{ exact, approx, warm time.Duration }
	// rep runs one repetition of row k on a fresh engine. The untimed
	// approximate pass at k = 1/2 materializes every atom table and node
	// join both legs read, without touching the pair-count memo.
	rep := func(k rat.Rat) (w walls, exactYes, apxYes bool, apxStats *engine.Stats, err error) {
		prep, err := engine.NewEngine(db).Prepare(mq, opt)
		if err != nil {
			return
		}
		if _, _, _, err = prep.DecideApproxStats(ctx, core.Cnf, rat.New(1, 2)); err != nil {
			return
		}
		if w.exact, err = timeIt(func() error {
			var err error
			exactYes, _, _, err = prep.DecideFirstStats(ctx, core.Cnf, k)
			return err
		}); err != nil {
			return
		}
		if w.approx, err = timeIt(func() error {
			var err error
			apxYes, _, apxStats, err = prep.DecideApproxStats(ctx, core.Cnf, k)
			return err
		}); err != nil {
			return
		}
		w.warm, err = timeIt(func() error {
			_, _, _, err := prep.DecideFirstStats(ctx, core.Cnf, k)
			return err
		})
		return
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
		var best walls
		var exactYes, apxYes bool
		var apxStats *engine.Stats
		for r := 0; r < reps; r++ {
			w, ey, ay, st, err := rep(c.k)
			if err != nil {
				return nil, err
			}
			exactYes, apxYes, apxStats = ey, ay, st
			if r == 0 || w.exact < best.exact {
				best.exact = w.exact
			}
			if r == 0 || w.approx < best.approx {
				best.approx = w.approx
			}
			if r == 0 || w.warm < best.warm {
				best.warm = w.warm
			}
		}

		speedup := float64(best.exact) / float64(best.approx)
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
			fmtDur(best.exact), fmtDur(best.approx), fmt.Sprintf("%.1fx", speedup),
			fmt.Sprint(apxStats.SamplesDrawn), fmt.Sprint(apxStats.ApproxEscalated), fmtDur(best.warm))
	}

	res.Notef("workload: %d tuples (%d binary relations x %d rows + %d unary head relations x %d values); cnf = 1/5 for all %d candidate pairs",
		total, bodyRels, rowsPer, headRels, headVals, bodyRels*headRels)
	res.Notef("approx: eps=0.1 delta=0.05, derived sample budget, fixed default seed; YES verdicts exactly confirmed before acceptance")
	res.Notef("pass = verdict agreement on every row, zero escalations, and >= 2x wall speedup on the NO-heavy rows (best-of-%d, fresh engine per repetition, cold pair-count memo)", reps)
	res.Notef("exact-warm: the same exact decision repeated on the warm pair-count memo; reported, not gated")
	res.Pass = pass
	return res, nil
}

func verdictE26(yes bool) string {
	if yes {
		return "YES"
	}
	return "NO"
}
