package core

import (
	"sync"

	"github.com/mqgo/metaquery/internal/rat"
	"github.com/mqgo/metaquery/internal/relation"
	"github.com/mqgo/metaquery/internal/stats"
)

// Evaluator computes plausibility indices over one database through caches
// shared across rule evaluations: the FromAtom materializations (keyed by
// atom text) and — when the evaluator carries cardinality statistics — the
// per-atom cost estimates. The instantiation searches (NaiveAnswers,
// Decide) evaluate thousands of rules whose atoms repeat constantly;
// holding one Evaluator per search turns those repeats into cache hits
// instead of fresh relation scans.
//
// Every multi-table join the evaluator runs picks its order in one place,
// JoinTables: with statistics attached (NewEvaluatorStats), joins of three
// or more inputs are ordered cost-based — the actual input cardinalities
// and the estimated per-column distinct counts drive a dynamic-programming
// order search (stats.OrderInto). Without statistics (NewEvaluator), and
// for two inputs, the size-greedy order applies (relation.GreedyOrderInto);
// the naive baseline runs that way, and experiment E22 compares the two
// evaluators.
//
// An Evaluator snapshots nothing: it reads the database lazily, so the
// database must not be modified while the Evaluator is in use; Fork derives
// the evaluator of a changed database version. All methods are safe for
// concurrent use.
type Evaluator struct {
	db *relation.Database
	st *stats.Stats // nil = no statistics; joins take the size-greedy order

	mu    sync.RWMutex
	atoms map[string]atomEntry
	ests  map[string]estEntry
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

// orderBuf is the pooled planning scratch of one join: the estimator
// inputs and the order permutation, sized for the DP planning width.
type orderBuf struct {
	in  [stats.OrderDPMax]stats.Est
	ord [stats.OrderDPMax]int
}

var orderScratch = sync.Pool{New: func() any { return new(orderBuf) }}

// joinBuf is the pooled input staging of one Join call: the per-atom
// tables handed to JoinTables. The join does not retain the slice, so the
// buffer is safe to recycle the moment the join returns.
type joinBuf struct {
	tables []*relation.Table
}

var joinScratch = sync.Pool{New: func() any { return new(joinBuf) }}

// fractionScratch pools the operator scratch of tableFraction's counting
// kernel, so a fraction allocates no key index in steady state.
var fractionScratch = sync.Pool{New: func() any { return relation.NewScratch() }}

// put returns the buffer to the pool with its table references scrubbed, so
// pooled buffers never pin arenas.
func (b *joinBuf) put(tables []*relation.Table) {
	clear(tables)
	b.tables = tables[:0]
	joinScratch.Put(b)
}

// NewEvaluator returns an empty-cached evaluator over db, without
// cardinality statistics (joins use the size-greedy order).
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
	}
}

// Fork returns an evaluator over db — a newer version of the evaluated
// database — and its statistics, carrying over every cached atom table and
// estimate whose relation is unchanged between the two versions
// (Database.Unchanged). ev itself is untouched; old-epoch readers keep
// using it.
func (ev *Evaluator) Fork(db *relation.Database, st *stats.Stats) *Evaluator {
	nev := &Evaluator{
		db:    db,
		st:    st,
		atoms: make(map[string]atomEntry),
		ests:  make(map[string]estEntry),
	}
	ev.mu.RLock()
	defer ev.mu.RUnlock()
	for k, e := range ev.atoms {
		if db.Unchanged(ev.db, e.pred) {
			nev.atoms[k] = e
		}
	}
	for k, e := range ev.ests {
		if db.Unchanged(ev.db, e.pred) {
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
// statistics. A hit builds no string: the key is rendered into a stack
// buffer and m[string(k)] does not allocate.
func (ev *Evaluator) AtomEst(a relation.Atom) stats.Est {
	var kb [atomKeyLen]byte
	k := a.AppendTo(kb[:0], nil)
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
// Only a miss allocates the key string.
func (ev *Evaluator) TableFor(a relation.Atom) (*relation.Table, error) {
	var kb [atomKeyLen]byte
	k := a.AppendTo(kb[:0], nil)
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

// Join computes J(R) for the atom set R: TableFor on each atom, joined by
// JoinTables. The result must be treated as immutable (single-atom joins
// return the cached atom table itself).
func (ev *Evaluator) Join(atoms []relation.Atom) (*relation.Table, error) {
	if len(atoms) == 0 {
		return relation.Unit(), nil
	}
	// Pooled input staging: the table slice lives only for this call.
	buf := joinScratch.Get().(*joinBuf)
	tables := buf.tables[:0]
	for _, a := range atoms {
		t, err := ev.TableFor(a)
		if err != nil {
			buf.put(tables)
			return nil, err
		}
		tables = append(tables, t)
	}
	t := ev.JoinTables(atoms, tables)
	buf.put(tables)
	return t, nil
}

// JoinTables joins tables, where tables[i] holds the rows of atoms[i] —
// its materialization, possibly semijoin-reduced — and is the one place a
// multi-table join picks its order. With statistics and more than two
// inputs the order is cost-based: the tables' actual cardinalities combine
// with the atoms' estimated per-column distinct counts in stats.OrderInto.
// Otherwise the size-greedy order (relation.GreedyOrderInto) applies; with
// two inputs the order is irrelevant, since the join hashes the smaller
// side. Either way the join runs through relation.JoinTablesOrdered.
// tables must not be empty, and the result must be treated as immutable
// (a single input is returned itself).
func (ev *Evaluator) JoinTables(atoms []relation.Atom, tables []*relation.Table) *relation.Table {
	// Pooled planning scratch: order planning itself must not allocate on
	// this per-join path (the DP tables are already stack-allocated inside
	// stats.OrderInto).
	scratch := orderScratch.Get().(*orderBuf)
	defer orderScratch.Put(scratch)
	var in []stats.Est
	var ord []int
	if n := len(tables); n <= stats.OrderDPMax {
		in, ord = scratch.in[:n], scratch.ord[:n]
	} else {
		in, ord = make([]stats.Est, n), make([]int, n)
	}
	if ev.st == nil || len(tables) <= 2 {
		return relation.JoinTablesOrdered(tables, relation.GreedyOrderInto(tables, ord))
	}
	for i, t := range tables {
		in[i] = ev.AtomEst(atoms[i]).WithRows(float64(t.Len()))
	}
	return relation.JoinTablesOrdered(tables, stats.OrderInto(in, ord))
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
	sc := fractionScratch.Get().(*relation.Scratch)
	num, _ := jr.SemijoinCounts(js, sc)
	fractionScratch.Put(sc)
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
