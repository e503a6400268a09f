package core

import (
	"sync"

	"github.com/mqgo/metaquery/internal/rat"
	"github.com/mqgo/metaquery/internal/relation"
	"github.com/mqgo/metaquery/internal/stats"
)

// Evaluator computes plausibility indices over one database through caches
// shared across rule evaluations: the FromAtom materializations (keyed by
// atom text), the compiled join plans (keyed by atom-set shape and, for
// cost-ordered plans, join order), and — when the evaluator carries
// cardinality statistics — the per-atom cost estimates. The instantiation
// searches (NaiveAnswers, Decide) evaluate thousands of
// rules whose atoms and join shapes repeat constantly; holding one
// Evaluator per search turns those repeats into cache hits instead of
// fresh relation scans and join-order analyses.
//
// With statistics attached (NewEvaluatorStats), Join orders multi-atom
// joins cost-based: the actual input cardinalities and the estimated
// per-column distinct counts drive a dynamic-programming order search
// (stats.Order). Without statistics (NewEvaluator) Join keeps the
// size-blind shape-greedy compiled order; the naive baseline runs that
// way, and experiment E22 compares the two evaluators.
//
// An Evaluator snapshots nothing: it reads the database lazily, so the
// database must not be modified while the Evaluator is in use; Fork derives
// the evaluator of a changed database version. All methods are safe for
// concurrent use.
type Evaluator struct {
	db *relation.Database
	st *stats.Stats // nil = no statistics; Join keeps the shape-greedy order

	mu    sync.RWMutex
	atoms map[string]atomEntry
	ests  map[string]estEntry
	plans *relation.PlanCache
}

// atomEntry is one cached atom materialization together with its predicate,
// which is what Fork needs to decide whether a database delta invalidates
// it (the table depends only on that one relation's rows).
type atomEntry struct {
	t    *relation.Table
	pred string
}

// estEntry is the estimate-cache counterpart of atomEntry.
type estEntry struct {
	e    stats.Est
	pred string
}

// orderBuf is the pooled scratch of one cost-ordered join: the estimator
// inputs and the order permutation, sized for the DP planning width.
type orderBuf struct {
	in  [stats.OrderDPMax]stats.Est
	ord [stats.OrderDPMax]int
}

var orderScratch = sync.Pool{New: func() any { return new(orderBuf) }}

// joinBuf is the pooled input staging of one Join call: the per-atom
// tables and schemas handed to the compiled plan. Neither slice is retained
// by the plan cache or by Run (plans copy what they keep), so the buffers
// are safe to recycle the moment the join returns.
type joinBuf struct {
	tables  []*relation.Table
	schemas [][]string
}

var joinScratch = sync.Pool{New: func() any { return new(joinBuf) }}

// put returns the buffer to the pool with its table references scrubbed, so
// pooled buffers never pin arenas.
func (b *joinBuf) put(tables []*relation.Table, schemas [][]string) {
	for i := range tables {
		tables[i] = nil
	}
	for i := range schemas {
		schemas[i] = nil
	}
	b.tables, b.schemas = tables[:0], schemas[:0]
	joinScratch.Put(b)
}

// NewEvaluator returns an empty-cached evaluator over db, without
// cardinality statistics (joins use the shape-greedy compiled order).
func NewEvaluator(db *relation.Database) *Evaluator {
	return NewEvaluatorStats(db, nil)
}

// NewEvaluatorStats returns an evaluator whose multi-atom joins are
// cost-ordered through st (collected once per database snapshot, usually
// by the engine). st may be nil, degrading to NewEvaluator behavior.
func NewEvaluatorStats(db *relation.Database, st *stats.Stats) *Evaluator {
	return &Evaluator{
		db:    db,
		st:    st,
		atoms: make(map[string]atomEntry),
		ests:  make(map[string]estEntry),
		plans: relation.NewPlanCache(),
	}
}

// Fork returns an evaluator over db — a newer version of the evaluated
// database — and its statistics, carrying over every cached atom table and
// estimate whose relation is pointer-identical between the two versions
// (copy-on-write deltas share unchanged relations, so pointer equality is
// exactly "this atom's data did not change"). The compiled-plan cache is
// shared outright: plans depend on atom-set shapes, not data. ev itself is
// untouched; old-epoch readers keep using it.
func (ev *Evaluator) Fork(db *relation.Database, st *stats.Stats) *Evaluator {
	nev := &Evaluator{
		db:    db,
		st:    st,
		atoms: make(map[string]atomEntry),
		ests:  make(map[string]estEntry),
		plans: ev.plans,
	}
	ev.mu.RLock()
	defer ev.mu.RUnlock()
	for k, e := range ev.atoms {
		if r := db.Relation(e.pred); r != nil && r == ev.db.Relation(e.pred) {
			nev.atoms[k] = e
		}
	}
	for k, e := range ev.ests {
		if r := db.Relation(e.pred); r != nil && r == ev.db.Relation(e.pred) {
			nev.ests[k] = e
		}
	}
	return nev
}

// Database returns the database the evaluator is bound to.
func (ev *Evaluator) Database() *relation.Database { return ev.db }

// Stats returns the cardinality statistics the evaluator plans with, or
// nil when it carries none.
func (ev *Evaluator) Stats() *stats.Stats { return ev.st }

// atomKeyLen sizes the stack buffer an atom's cache key is rendered into;
// longer atoms spill to the heap, which only costs an allocation.
const atomKeyLen = 64

// AtomEst returns the cost estimate of atom a (stats.AtomEst), cached
// across evaluations. It must only be called on evaluators carrying
// statistics.
func (ev *Evaluator) AtomEst(a relation.Atom) stats.Est {
	var kb [atomKeyLen]byte
	return ev.atomEstKey(a.AppendTo(kb[:0], nil), a)
}

// atomEstKey is AtomEst with the cache key (the atom's text) precomputed,
// so the join path renders it once for both caches. A hit builds no
// string: m[string(k)] does not allocate.
func (ev *Evaluator) atomEstKey(k []byte, a relation.Atom) stats.Est {
	ev.mu.RLock()
	e, ok := ev.ests[string(k)]
	ev.mu.RUnlock()
	if ok {
		return e.e
	}
	est := ev.st.AtomEst(a)
	ev.mu.Lock()
	ev.ests[string(k)] = estEntry{e: est, pred: a.Pred}
	ev.mu.Unlock()
	return est
}

// TableFor returns the materialization of atom a (relation.FromAtom), cached
// across evaluations. The result is shared: callers must not modify it.
func (ev *Evaluator) TableFor(a relation.Atom) (*relation.Table, error) {
	var kb [atomKeyLen]byte
	return ev.tableForKey(a.AppendTo(kb[:0], nil), a)
}

// tableForKey is TableFor with the cache key precomputed. Only a miss
// allocates the key string.
func (ev *Evaluator) tableForKey(k []byte, a relation.Atom) (*relation.Table, error) {
	ev.mu.RLock()
	e, ok := ev.atoms[string(k)]
	ev.mu.RUnlock()
	if ok {
		return e.t, nil
	}
	t, err := relation.FromAtom(ev.db, a)
	if err != nil {
		return nil, err
	}
	t = t.Compact() // cached for the evaluator's lifetime; don't pin the scan-sized arena
	ev.mu.Lock()
	if prev, ok := ev.atoms[string(k)]; ok {
		t = prev.t // another goroutine won the race; keep one canonical table
	} else {
		ev.atoms[string(k)] = atomEntry{t: t, pred: a.Pred}
	}
	ev.mu.Unlock()
	return t, nil
}

// Join computes J(R) for the atom set R through a compiled join plan: the
// per-atom tables come from the TableFor cache and the join order and column
// bookkeeping from the plan cache, so repeated shapes pay only the
// build/probe passes. With statistics attached, joins of three or more
// atoms are ordered cost-based per atom set (stats.OrderInto, cached as one
// plan per (shape, order) pair); otherwise the shape-greedy compiled order
// applies. The result must be treated as immutable (single-atom joins
// return the cached atom table itself).
func (ev *Evaluator) Join(atoms []relation.Atom) (*relation.Table, error) {
	if len(atoms) == 0 {
		return relation.Unit(), nil
	}
	costBased := ev.st != nil && len(atoms) > 2

	// Pooled input staging: the table and schema slices live only for this
	// call (plans copy what they keep), so they come from a pool instead of
	// two fresh allocations per join.
	buf := joinScratch.Get().(*joinBuf)
	tables := buf.tables[:0]
	schemas := buf.schemas[:0]

	// Pooled planning scratch: order planning itself must not allocate on
	// this per-join path (the DP tables are already stack-allocated inside
	// stats.OrderInto).
	var in []stats.Est
	var ord []int
	if costBased {
		scratch := orderScratch.Get().(*orderBuf)
		defer orderScratch.Put(scratch)
		if len(atoms) <= stats.OrderDPMax {
			in, ord = scratch.in[:len(atoms)], scratch.ord[:len(atoms)]
		} else {
			in, ord = make([]stats.Est, len(atoms)), make([]int, len(atoms))
		}
	}
	var kb [atomKeyLen]byte
	for i, a := range atoms {
		k := a.AppendTo(kb[:0], nil)
		t, err := ev.tableForKey(k, a)
		if err != nil {
			buf.put(tables, schemas)
			return nil, err
		}
		tables = append(tables, t)
		schemas = append(schemas, t.Vars())
		if costBased {
			// One key build serves both the table and the estimate cache.
			in[i] = ev.atomEstKey(k, a).WithRows(float64(t.Len()))
		}
	}
	if !costBased {
		// With two inputs the order is irrelevant (the join hashes the
		// smaller side), so the shape plan is already optimal.
		t, err := ev.plans.For(schemas).Run(tables)
		buf.put(tables, schemas)
		return t, err
	}
	order := stats.OrderInto(in, ord)
	t, err := ev.plans.ForOrder(schemas, order).Run(tables)
	buf.put(tables, schemas)
	return t, err
}

// Fraction computes R ↑ S of Definition 2.6 (see the package-level Fraction)
// through the evaluator's caches.
func (ev *Evaluator) Fraction(r, s []relation.Atom) (rat.Rat, error) {
	jr, err := ev.Join(r)
	if err != nil {
		return rat.Zero, err
	}
	return ev.fractionOf(jr, s)
}

// fractionOf finishes R ↑ S given jr = J(R) already materialized. J(S) is
// not materialized when jr is empty (the fraction is 0 regardless).
func (ev *Evaluator) fractionOf(jr *relation.Table, s []relation.Atom) (rat.Rat, error) {
	if jr.Empty() {
		return rat.Zero, nil
	}
	js, err := ev.Join(s)
	if err != nil {
		return rat.Zero, err
	}
	return tableFraction(jr, js), nil
}

// tableFraction computes |jr ⋉ js| / |jr| with the Definition 2.6 zero
// conventions (0 when either the denominator or the numerator is 0), given
// both joins materialized. It is the single implementation behind every
// fraction the evaluator reports.
func tableFraction(jr, js *relation.Table) rat.Rat {
	if jr.Empty() {
		return rat.Zero
	}
	num := jr.SemijoinCount(js)
	if num == 0 {
		return rat.Zero
	}
	return rat.New(int64(num), int64(jr.Len()))
}

// supportOf computes max_{a ∈ body} |J({a}) ⋉ jb| / |J({a})| given the body
// join jb already materialized.
func (ev *Evaluator) supportOf(body []relation.Atom, jb *relation.Table) (rat.Rat, error) {
	best := rat.Zero
	for _, a := range body {
		ja, err := ev.TableFor(a)
		if err != nil {
			return rat.Zero, err
		}
		best = rat.Max(best, tableFraction(ja, jb))
	}
	return best, nil
}

// IndexExceeds reports whether ix(r) > k, the single-index check of the
// Section 3.2 decision problems, computing only what the queried index
// needs instead of all three indices: support never joins the head and
// returns as soon as one body atom's fraction exceeds k (support is a
// maximum), confidence and cover join only their two sides. It is the
// evaluator hook behind the naive decider and the engine's first-witness
// path.
func (ev *Evaluator) IndexExceeds(ix Index, r Rule, k rat.Rat) (bool, error) {
	switch ix {
	case Sup:
		body := r.BodyAtoms()
		jb, err := ev.Join(body)
		if err != nil {
			return false, err
		}
		for _, a := range body {
			ja, err := ev.TableFor(a)
			if err != nil {
				return false, err
			}
			if tableFraction(ja, jb).Greater(k) {
				return true, nil
			}
		}
		return false, nil
	default:
		v, err := ix.ComputeEval(ev, r)
		if err != nil {
			return false, err
		}
		return v.Greater(k), nil
	}
}

// Confidence computes cnf(r) = b(r) ↑ h(r) (Definition 2.7).
func (ev *Evaluator) Confidence(r Rule) (rat.Rat, error) {
	return ev.Fraction(r.BodyAtoms(), r.HeadAtoms())
}

// Cover computes cvr(r) = h(r) ↑ b(r) (Definition 2.7).
func (ev *Evaluator) Cover(r Rule) (rat.Rat, error) {
	return ev.Fraction(r.HeadAtoms(), r.BodyAtoms())
}

// Support computes sup(r) = max_{a ∈ b(r)} ({a} ↑ b(r)) (Definition 2.7).
// The body join J(b(r)) is materialized once and shared by every per-atom
// fraction, instead of once per body atom.
func (ev *Evaluator) Support(r Rule) (rat.Rat, error) {
	body := r.BodyAtoms()
	jb, err := ev.Join(body)
	if err != nil {
		return rat.Zero, err
	}
	return ev.supportOf(body, jb)
}

// Indices computes all three plausibility indices of r, materializing the
// body join J(b(r)) and head join J(h(r)) once each and sharing them: sup
// probes J(b(r)) per body atom, cnf is |J(b) ⋉ J(h)| / |J(b)| and cvr is
// |J(h) ⋉ J(b)| / |J(h)|.
func (ev *Evaluator) Indices(r Rule) (sup, cnf, cvr rat.Rat, err error) {
	body, head := r.BodyAtoms(), r.HeadAtoms()
	jb, err := ev.Join(body)
	if err != nil {
		return
	}
	jh, err := ev.Join(head)
	if err != nil {
		return
	}
	sup, err = ev.supportOf(body, jb)
	if err != nil {
		return
	}
	cnf = tableFraction(jb, jh)
	cvr = tableFraction(jh, jb)
	return
}
