package engine

import (
	"context"

	"github.com/mqgo/metaquery/internal/approx"
	"github.com/mqgo/metaquery/internal/core"
	"github.com/mqgo/metaquery/internal/obs"
	"github.com/mqgo/metaquery/internal/rat"
	"github.com/mqgo/metaquery/internal/relation"
)

// approxMinPopulation is the denominator size below which sampling cannot
// beat the exact counting kernel (SemijoinCounts): tiny fractions are
// computed exactly, outside the escalation accounting.
const approxMinPopulation = 16

// approxMinFractionBudget floors the stratified per-fraction budget shares
// at one checkpoint doubling, so a low-estimate atom can still clear an
// interval instead of escalating unconditionally.
const approxMinFractionBudget = 32

// DecideApprox solves the decision problem ⟨DB, MQ, ix, k, T⟩ like
// DecideFirst, with the same decider (decide.go): the same body search and
// selectivity-ordered (stats-driven) node visit order, the same head walk
// and support loop, the same candidate index and per-epoch node-join
// cache. Only the decider's fraction test differs: where DecideFirst
// counts every candidate fraction |t ⋉ u| / |t| exactly, DecideApprox
// estimates it by uniform row sampling under the Prepared's
// Options.Approx (ε, δ) contract. For every fraction it runs a sequential
// test (internal/approx.Seq): uniform rows of t are drawn without
// replacement and probed against u, and the candidate is accepted or
// rejected as soon as the Hoeffding interval at confidence 1−δ clears the
// threshold. An interval still straddling k after the sample budget — which
// certifies the fraction is within ±ε of k under the default budget —
// escalates to an exact semijoin count, as does a budget that covers the
// whole population (exhausted without-replacement sampling *is* exact
// evaluation).
//
// The error contract is one-sided in practice: a sampled accept is
// confirmed exactly before it can become a witness, so a YES verdict (and
// its witness) is never wrong; a NO verdict may miss a true witness with
// probability at most δ per rejected fraction when its true value lies
// above k+ε. Stats.SamplesDrawn and Stats.ApproxEscalated report the
// sampling effort and the escalation count.
//
// The per-body sup budget is stratified across the body's atom fractions
// proportionally to the statistics' MCV-backed cardinality estimates. All
// sampling randomness derives from Options.Approx.Seed, so identical
// inputs replay identical decisions. The run is sequential: the sampler
// seeds follow the walk order, and Options.Workers is ignored here (the
// sampled NO path makes per-candidate work too small to amortize worker
// startup).
//
// Without Options.Approx configured, DecideApprox is the exact
// DecideFirst.
func (p *Prepared) DecideApprox(ctx context.Context, ix core.Index, k rat.Rat) (bool, *core.Instantiation, error) {
	yes, wit, _, err := p.DecideApproxStats(ctx, ix, k)
	return yes, wit, err
}

// DecideApproxStats is DecideApprox additionally returning the run's search
// counters, including the samples-drawn and escalation counts.
func (p *Prepared) DecideApproxStats(ctx context.Context, ix core.Index, k rat.Rat) (bool, *core.Instantiation, *Stats, error) {
	return p.decide(ctx, ix, k, p.opt.Approx.Enabled())
}

// approxParams normalizes the option triple: an unset budget derives the
// Hoeffding count at which a straddling interval certifies the fraction is
// inside the ±ε band (the δ/16 accounts for the geometric checkpoint
// schedule splitting δ across at most ~16 looks).
func approxParams(a ApproxOptions) approx.Params {
	par := approx.Params{Epsilon: a.Epsilon, Delta: a.Delta, MaxSamples: a.MaxSamples}
	if par.MaxSamples == 0 {
		par.MaxSamples = approx.SamplesFor(a.Epsilon, a.Delta/16)
	}
	return par
}

// approxSeedBase folds the decision's identity into the configured seed so
// different (ix, k) decisions draw different — but individually
// reproducible — sample orders. Seed 0 means a fixed default, never a
// random one.
func approxSeedBase(seed int64, ix core.Index, k rat.Rat) uint64 {
	s := uint64(seed)
	if s == 0 {
		s = 0x6d657461717279 // "metaqry": the fixed default seed
	}
	s ^= uint64(ix+1) << 56
	s ^= uint64(k.Num())<<20 ^ uint64(k.Den())
	return s
}

// nextSeed returns a fresh deterministic sampler seed: a Weyl sequence over
// the decision's seed base, advanced once per fraction in walk order.
func (d *decider) nextSeed() uint64 {
	d.seedCtr++
	return d.seedBase + d.seedCtr*0x9e3779b97f4a7c15
}

// sampledSupportExceeds is the sampled support test for one body. The
// sample budget is stratified across the body's atom fractions
// proportionally to the snapshot statistics' estimated atom cardinalities
// (AtomEst consults the MCV sketches for constant selections), floored so
// small strata still get a decidable share; so every atom's estimate is
// collected before the first fraction is tested.
func (d *decider) sampledSupportExceeds(b *body) (bool, error) {
	r := d.run
	ras, us, ests := d.raS[:0], d.uS[:0], d.estS[:0]
	defer func() {
		clear(ras)
		clear(us)
		d.raS, d.uS, d.estS = ras[:0], us[:0], ests[:0]
	}()
	total := 0.0
	err := r.forEachBodyAtom(b.sigma, b.s, func(atom relation.Atom, ra, u *relation.Table) bool {
		est := float64(ra.Len())
		if e := r.ep.snap.ev.AtomEst(atom).Rows; e > 0 {
			est = e
		}
		ras, us, ests = append(ras, ra), append(us, u), append(ests, est)
		total += est
		return false
	})
	if err != nil {
		return false, err
	}
	for i, ra := range ras {
		if err := r.ctx.Err(); err != nil {
			return false, err
		}
		if us[i] == nil {
			// A sole-atom decomposition's fraction is exactly 1.
			if rat.One.Greater(d.k) {
				return true, nil
			}
			continue
		}
		budget := d.par.MaxSamples
		if len(ras) > 1 && total > 0 {
			budget = int(float64(d.par.MaxSamples) * ests[i] / total)
			if budget < approxMinFractionBudget {
				budget = approxMinFractionBudget
			}
		}
		exceeds, err := d.fractionExceeds(ra, us[i], budget)
		if err != nil || exceeds {
			return exceeds, err
		}
	}
	return false, nil
}

// fractionExceeds decides |t ⋉ u| / |t| > k through fractionExceedsImpl,
// wrapping it in a "sample" span when the run is traced: the span's
// escalated attr reports whether this fraction was resolved exactly (every
// ApproxEscalated increment happens inside the impl, at most once per
// call, so the before/after delta is exact), and drawn reports the rows
// this call sampled.
func (d *decider) fractionExceeds(t, u *relation.Table, budget int) (bool, error) {
	r := d.run
	if r.tr == nil {
		return d.fractionExceedsImpl(t, u, budget)
	}
	esc0, drawn0 := r.stats.ApproxEscalated, r.stats.SamplesDrawn
	sp := r.tr.Begin(r.span, "sample")
	exceeds, err := d.fractionExceedsImpl(t, u, budget)
	r.tr.End(sp,
		obs.AInt("population", t.Len()),
		obs.AInt("budget", budget),
		obs.AInt("drawn", r.stats.SamplesDrawn-drawn0),
		obs.ABool("escalated", r.stats.ApproxEscalated > esc0),
		obs.ABool("exceeds", exceeds))
	return exceeds, err
}

// fractionExceedsImpl decides |t ⋉ u| / |t| > k. Large denominators run
// the sequential sampled test with the given budget; tiny ones,
// escalations and the confirmation of sampled accepts are counted exactly
// by SemijoinCounts (a cartesian degeneration, with no shared columns, is
// 0 or 1 outright), so every returned YES is a certainty. Sampled rows of t
// are probed against u through the run's key index (KeyCounts.Probe).
func (d *decider) fractionExceedsImpl(t, u *relation.Table, budget int) (bool, error) {
	r := d.run
	pop := t.Len()
	if pop == 0 {
		return false, nil // fraction 0; 0 > k is false for k ≥ 0
	}
	if !sharesColumn(t, u) {
		// Cartesian semijoin semantics: every t row matches iff u has rows.
		if u.Empty() {
			return false, nil
		}
		return rat.One.Greater(d.k), nil
	}
	exact := func() (bool, error) {
		num, _ := t.SemijoinCounts(u, r.sc)
		if num == 0 {
			return false, nil
		}
		return rat.New(int64(num), int64(pop)).Greater(d.k), nil
	}
	if pop <= approxMinPopulation {
		return exact()
	}
	seq := approx.NewSeq(d.kf, pop, approx.Params{Epsilon: d.par.Epsilon, Delta: d.par.Delta, MaxSamples: budget})
	if seq.Verdict() == approx.Escalate {
		r.stats.ApproxEscalated++
		return exact()
	}

	ix := &r.keyIdx
	ix.Probe(t, u, r.sc)
	smp := relation.NewSampler(pop, d.nextSeed())
	for {
		batch := seq.Batch()
		if batch == 0 {
			break
		}
		if err := r.ctx.Err(); err != nil {
			ix.Reset(r.sc)
			return false, err
		}
		hits := 0
		for i := 0; i < batch; i++ {
			if ix.Has(t.Row(smp.Next())) {
				hits++
			}
		}
		seq.Observe(hits, batch)
	}
	ix.Reset(r.sc)
	r.stats.SamplesDrawn += seq.Drawn()
	switch seq.Verdict() {
	case approx.Above:
		// Confirm a sampled accept exactly before it can become a witness:
		// approximate YES verdicts are then never wrong. A contradiction
		// (probability ≤ δ) counts as an escalation and the exact value
		// decides.
		ok, err := exact()
		if err != nil {
			return false, err
		}
		if !ok {
			r.stats.ApproxEscalated++
		}
		return ok, nil
	case approx.Below:
		return false, nil
	case approx.Exact:
		// The sampler covered the whole population without replacement:
		// the counts are the exact fraction, no kernels needed.
		r.stats.ApproxEscalated++
		m, n := seq.Counts()
		if m == 0 {
			return false, nil
		}
		return rat.New(int64(m), int64(n)).Greater(d.k), nil
	default: // approx.Escalate
		r.stats.ApproxEscalated++
		return exact()
	}
}

// sharesColumn reports whether t and u have a column in common.
func sharesColumn(t, u *relation.Table) bool {
	for _, v := range u.Vars() {
		if t.HasVar(v) {
			return true
		}
	}
	return false
}
