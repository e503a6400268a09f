package main

import (
	"context"
	"fmt"
	"math"
	"sort"

	"github.com/mqgo/metaquery/internal/core"
	"github.com/mqgo/metaquery/internal/engine"
	"github.com/mqgo/metaquery/internal/rat"
	"github.com/mqgo/metaquery/internal/relation"
)

// reference is what the server must answer, computed by calling the
// engine directly before any timing starts: the answer digest of every
// search and the exact verdict of every decision. A nil entry is not
// checked (churn reads follow PATCHes).
type reference struct {
	search  []*digest
	verdict []*bool
}

// searchOptions are the engine options of searches[i].
func searchOptions(s searchSpec) (engine.Options, error) {
	opt := engine.Options{Type: core.InstType(s.Type)}
	for _, th := range []struct {
		s     string
		k     *rat.Rat
		check *bool
	}{{s.MinSup, &opt.Thresholds.Sup, &opt.Thresholds.CheckSup}, {s.MinCnf, &opt.Thresholds.Cnf, &opt.Thresholds.CheckCnf}} {
		if th.s == "" {
			continue
		}
		k, err := rat.Parse(th.s)
		if err != nil {
			return opt, err
		}
		*th.k, *th.check = k, true
	}
	return opt, nil
}

func parseIndex(s string) (core.Index, error) {
	switch s {
	case "sup":
		return core.Sup, nil
	case "cnf":
		return core.Cnf, nil
	case "cvr":
		return core.Cvr, nil
	}
	return 0, fmt.Errorf("unknown index %q", s)
}

// computeReference answers every search and decision of in directly on db.
// The server renders α-equivalent searches in the naming of the first
// spelling it prepared, which the warm pass makes the first one listed, so
// each later spelling expects its first spelling's digest.
func computeReference(ctx context.Context, in *inputs, db *relation.Database) (*reference, error) {
	eng := engine.NewEngine(db)
	ref := &reference{}
	first := map[string]*digest{}
	for _, s := range in.searches {
		mq, key, err := parseQuery(s.Query)
		if err != nil {
			return nil, err
		}
		opt, err := searchOptions(s)
		if err != nil {
			return nil, err
		}
		key = fmt.Sprintf("%s|%d|%s|%s", key, s.Type, s.MinSup, s.MinCnf)
		if d, ok := first[key]; ok {
			ref.search = append(ref.search, d)
			continue
		}
		prep, err := eng.Prepare(mq, opt)
		if err != nil {
			return nil, err
		}
		answers, err := prep.FindRules(ctx)
		if err != nil {
			return nil, err
		}
		d := &digest{}
		for _, a := range answers {
			d.add(answerJSON{Rule: a.Rule.String(), Sup: a.Sup.String(), Cnf: a.Cnf.String(), Cvr: a.Cvr.String()})
		}
		first[key] = d
		ref.search = append(ref.search, d)
	}
	for _, d := range in.decisions {
		mq, _, err := parseQuery(d.query)
		if err != nil {
			return nil, err
		}
		ix, err := parseIndex(d.index)
		if err != nil {
			return nil, err
		}
		k, err := rat.Parse(d.k)
		if err != nil {
			return nil, err
		}
		prep, err := eng.Prepare(mq, engine.Options{Type: core.InstType(d.typ)})
		if err != nil {
			return nil, err
		}
		yes, _, err := prep.DecideFirst(ctx, ix, k)
		if err != nil {
			return nil, err
		}
		ref.verdict = append(ref.verdict, &yes)
	}
	return ref, nil
}

// indexValues returns every instantiation's value of index ix for d.
func indexValues(ctx context.Context, eng *engine.Engine, d decideSpec) ([]float64, error) {
	mq, _, err := parseQuery(d.query)
	if err != nil {
		return nil, err
	}
	answers, err := eng.FindRules(ctx, mq, engine.Options{Type: core.InstType(d.typ)})
	if err != nil {
		return nil, err
	}
	vals := make([]float64, 0, len(answers))
	for _, a := range answers {
		v := map[string]rat.Rat{"sup": a.Sup, "cnf": a.Cnf, "cvr": a.Cvr}[d.index]
		vals = append(vals, v.Float64())
	}
	return vals, nil
}

// fixBands gives every decision without a bound the midpoint of the
// widest gap between its true index values (0 and 1 included), with ε at
// four tenths of the gap (at most 0.1); a decision with a bound is checked
// to have no true value strictly inside (k-ε, k+ε). Either way the
// approximate verdict must then equal the exact one: outside the band the
// sampler decides, inside it escalates, and a YES is always confirmed
// exactly.
func fixBands(ctx context.Context, in *inputs, db *relation.Database) error {
	eng := engine.NewEngine(db)
	for i := range in.decisions {
		d := &in.decisions[i]
		vals, err := indexValues(ctx, eng, *d)
		if err != nil {
			return err
		}
		if d.k != "" {
			k, err := rat.Parse(d.k)
			if err != nil {
				return err
			}
			for _, v := range vals {
				if math.Abs(v-k.Float64()) < d.eps {
					return fmt.Errorf("decision %q %s > %s: true value %.4f lies in the ε-band", d.query, d.index, d.k, v)
				}
			}
			continue
		}
		pts := append([]float64{0, 1}, vals...)
		sort.Float64s(pts)
		lo, gap := 0.0, 0.0
		for j := 1; j < len(pts); j++ {
			if g := pts[j] - pts[j-1]; g > gap {
				lo, gap = pts[j-1], g
			}
		}
		if gap < 0.01 {
			return fmt.Errorf("decision %q %s: no gap between true values to place a bound in", d.query, d.index)
		}
		d.k = fmt.Sprintf("%d/1000", int(math.Round((lo+gap/2)*1000)))
		d.eps = math.Min(0.1, 0.4*gap)
	}
	return nil
}
