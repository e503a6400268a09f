package diff

import (
	"context"
	"fmt"
	"math/rand"

	"github.com/mqgo/metaquery/internal/core"
	"github.com/mqgo/metaquery/internal/engine"
	"github.com/mqgo/metaquery/internal/gen"
	"github.com/mqgo/metaquery/internal/oracle"
	"github.com/mqgo/metaquery/internal/rat"
	"github.com/mqgo/metaquery/internal/relation"
)

// DeltaBatches is the script length RunDeltas drives through Engine.Apply.
const DeltaBatches = 3

// RunDeltas is the incremental-engine differential: it prepares a scenario's
// metaquery once (sequential and worker-pool parallel) on a mutable engine,
// then drives a seed-deterministic delta script (gen.DeltaScript) through
// Engine.Apply and, after every batch, checks each execution path of the
// long-lived Prepared values against a from-scratch engine built on a clone
// of the post-delta database. Any divergence means the incremental
// maintenance — copy-on-write relations, statistics deltas, candidate-index
// and cache carryover, epoch switching inside Prepared — broke somewhere a
// rebuild would not.
//
// After the final batch it also cross-checks the decision path: DecideFirst
// bounds derived from the fresh engine's unconstrained maxima, with witness
// validity confirmed by the oracle on the final database.
func RunDeltas(s *gen.Scenario) (*Mismatch, error) {
	ctx := context.Background()
	mismatch := func(path, detail string) *Mismatch {
		return &Mismatch{Scenario: s, Path: path, Detail: detail}
	}

	eng := engine.NewEngine(s.DB.Clone())
	opt := engine.Options{Type: s.Type, Thresholds: s.Th}
	prep, err := eng.Prepare(s.MQ, opt)
	if err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	rng := rand.New(rand.NewSource(s.Seed ^ 0xde17a))
	parWorkers := 2 + rng.Intn(4)
	parOpt := opt
	parOpt.Workers = parWorkers
	prepPar, err := eng.Prepare(s.MQ, parOpt)
	if err != nil {
		return nil, fmt.Errorf("prepare-parallel: %w", err)
	}

	single := singleBody(s)
	prepSingle, err := eng.Prepare(single.MQ, opt)
	if err != nil {
		return nil, fmt.Errorf("prepare-single-body: %w", err)
	}

	// Warm the Prepareds on epoch 0 so the per-epoch join caches and the
	// pair-count memo have content the epoch switch must correctly carry
	// or drop.
	if _, err := prep.FindRules(ctx); err != nil {
		return nil, fmt.Errorf("warmup: %w", err)
	}
	if _, err := prepPar.FindRules(ctx); err != nil {
		return nil, fmt.Errorf("warmup-parallel: %w", err)
	}
	if _, err := prepSingle.FindRules(ctx); err != nil {
		return nil, fmt.Errorf("warmup-single-body: %w", err)
	}

	script := gen.DeltaScript(s, DeltaBatches)
	for bi, batch := range script {
		d := engine.Delta{}
		for _, td := range batch {
			d.Relations = append(d.Relations, engine.RelationDelta{
				Name: td.Rel, Arity: td.Arity, Insert: td.Insert, Delete: td.Delete,
			})
		}
		if _, err := eng.Apply(ctx, d); err != nil {
			return nil, fmt.Errorf("apply batch %d: %w", bi, err)
		}

		fresh := engine.NewEngine(eng.Database().Clone())
		want, err := fresh.FindRules(ctx, s.MQ, opt)
		if err != nil {
			return nil, fmt.Errorf("fresh rebuild after batch %d: %w", bi, err)
		}
		wantSet := answerSet(coreKeys(want))
		tag := func(path string) string { return fmt.Sprintf("%s (batch %d)", path, bi) }

		got, err := prep.FindRules(ctx)
		if err != nil {
			return nil, fmt.Errorf("delta-engine batch %d: %w", bi, err)
		}
		if d := diffSets(answerSet(coreKeys(got)), wantSet); d != "" {
			return mismatch("delta-engine", tag(d)), nil
		}

		var streamed []core.Answer
		for a, serr := range prep.Stream(ctx) {
			if serr != nil {
				return nil, fmt.Errorf("delta-stream batch %d: %w", bi, serr)
			}
			streamed = append(streamed, a)
		}
		if d := diffSets(answerSet(coreKeys(streamed)), wantSet); d != "" {
			return mismatch("delta-stream", tag(d)), nil
		}

		var parStreamed []core.Answer
		for a, serr := range prepPar.Stream(ctx) {
			if serr != nil {
				return nil, fmt.Errorf("delta-stream-parallel batch %d: %w", bi, serr)
			}
			parStreamed = append(parStreamed, a)
		}
		if d := diffSets(answerSet(coreKeys(parStreamed)), wantSet); d != "" {
			return mismatch("delta-stream-parallel", fmt.Sprintf("workers=%d: %s", parWorkers, tag(d))), nil
		}

		parFull, err := prepPar.FindRules(ctx)
		if err != nil {
			return nil, fmt.Errorf("delta-findrules-parallel batch %d: %w", bi, err)
		}
		if d := diffSets(answerSet(coreKeys(parFull)), wantSet); d != "" {
			return mismatch("delta-findrules-parallel", fmt.Sprintf("workers=%d: %s", parWorkers, tag(d))), nil
		}

		// Single-atom bodies: the counts of pairs the batch left alone come
		// from memo entries carried across the epoch.
		if m, err := checkSingleBody(ctx, single, eng.Database(), prepSingle,
			fmt.Sprintf("delta-single-body (batch %d)", bi)); m != nil || err != nil {
			return m, err
		}

		// The incrementally maintained statistics must stay exactly what a
		// cold collection over the current database produces.
		if d := eng.Statistics().DiffFrom(fresh.Statistics()); d != "" {
			return mismatch("delta-stats", tag(d)), nil
		}
	}

	// Decision path on the final database: bounds that flip the verdict,
	// derived from the fresh engine's unconstrained maxima.
	finalDB := eng.Database()
	fresh := engine.NewEngine(finalDB.Clone())
	all, err := fresh.FindRules(ctx, s.MQ, engine.Options{Type: s.Type})
	if err != nil {
		return nil, fmt.Errorf("fresh unconstrained: %w", err)
	}
	maxes := map[core.Index]rat.Rat{core.Sup: rat.Zero, core.Cnf: rat.Zero, core.Cvr: rat.Zero}
	for _, a := range all {
		maxes[core.Sup] = rat.Max(maxes[core.Sup], a.Sup)
		maxes[core.Cnf] = rat.Max(maxes[core.Cnf], a.Cnf)
		maxes[core.Cvr] = rat.Max(maxes[core.Cvr], a.Cvr)
	}
	for _, ix := range core.AllIndices {
		maxV := maxes[ix]
		bounds := []rat.Rat{rat.Zero, maxV}
		if maxV.Greater(rat.Zero) {
			bounds = append(bounds, rat.New(maxV.Num(), maxV.Den()*2))
		}
		for _, k := range bounds {
			wantYes := maxV.Greater(k)
			for _, leg := range []struct {
				path string
				p    *engine.Prepared
			}{{"delta-decide-first", prep}, {"delta-decide-first-parallel", prepPar}} {
				gotYes, wit, err := leg.p.DecideFirst(ctx, ix, k)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", leg.path, err)
				}
				if gotYes != wantYes {
					return mismatch(leg.path,
						fmt.Sprintf("%s > %s: got %v, fresh maxima say %v", ix, k, gotYes, wantYes)), nil
				}
				if m := checkWitnessOn(s, finalDB, ix, k, wit, leg.path); m != nil {
					return m, nil
				}
			}
		}
	}
	return nil, nil
}

// checkWitnessOn is checkWitness against an explicit database version (the
// post-delta state, not the scenario's original DB).
func checkWitnessOn(s *gen.Scenario, db *relation.Database, ix core.Index, k rat.Rat, wit *core.Instantiation, path string) *Mismatch {
	if wit == nil {
		return nil
	}
	rule, err := wit.Apply(s.MQ)
	if err != nil {
		return &Mismatch{Scenario: s, Path: path + "-witness",
			Detail: fmt.Sprintf("witness %s does not instantiate the metaquery: %v", wit, err)}
	}
	sup, cnf, cvr, err := oracle.Indices(db, rule)
	if err != nil {
		return &Mismatch{Scenario: s, Path: path + "-witness",
			Detail: fmt.Sprintf("witness rule %s not evaluable: %v", rule, err)}
	}
	v := sup
	switch ix {
	case core.Cnf:
		v = cnf
	case core.Cvr:
		v = cvr
	}
	if !v.Greater(k) {
		return &Mismatch{Scenario: s, Path: path + "-witness",
			Detail: fmt.Sprintf("witness rule %s has %s = %s, not > %s", rule, ix, v, k)}
	}
	return nil
}
