package engine

import (
	"context"
	"sync"
	"sync/atomic"

	"github.com/mqgo/metaquery/internal/core"
	"github.com/mqgo/metaquery/internal/rat"
	"github.com/mqgo/metaquery/internal/relation"
	"github.com/mqgo/metaquery/internal/stats"
)

// snapshot is one immutable epoch of an Engine: a database version together
// with every per-database structure derived from it — the candidate index,
// the cardinality statistics, and the evaluator caches. A search run binds
// to exactly one snapshot for its whole lifetime (via its prepEpoch), which
// is what makes Apply safe under concurrent executions: readers of an old
// epoch keep a consistent world, new executions pick up the latest one.
type snapshot struct {
	epoch uint64
	db    *relation.Database
	cands *core.CandidateIndex
	st    *stats.Stats
	ev    *core.Evaluator
}

// newSnapshot asserts the epoch-coherence invariant before publication:
// every derived structure must be bound to the exact database version the
// snapshot carries. Apply constructs all four together, so a mismatch here
// is a bug in the delta machinery — better a panic at the publication point
// than searches silently mixing stats from one epoch with tables from
// another. Statistics are required: the planner, the candidate order and
// the sampler budgets all price atoms from them.
func newSnapshot(epoch uint64, db *relation.Database, cands *core.CandidateIndex, st *stats.Stats, ev *core.Evaluator) *snapshot {
	if st == nil {
		panic("engine: snapshot without statistics")
	}
	if cands.Database() != db || st.Database() != db || ev.Database() != db {
		panic("engine: snapshot components disagree on the database version")
	}
	s := &snapshot{epoch: epoch, db: db, cands: cands, st: st, ev: ev}
	return s
}

// Engine is a reusable metaquerying session bound to one database,
// analogous to database/sql's *DB. It builds the per-database structures
// every search consults — the candidate index (relations bucketed by
// arity, memoized pattern candidates), the cardinality statistics
// (per-relation row counts, per-column distinct counts and MCV sketches,
// collected in one pass at construction), and the evaluator caches
// (FromAtom materializations and per-atom cost estimates) — once, and
// shares them across all queries prepared on it.
//
// The engine's database is mutable through Apply, which installs a new
// epoch snapshot (copy-on-write relations, incrementally maintained
// statistics and caches) without disturbing in-flight executions: every
// run pins the snapshot it started on. Direct mutation of the underlying
// *relation.Database is not allowed while the Engine is in use — all
// changes go through Apply.
//
// An Engine is safe for concurrent use by multiple goroutines.
type Engine struct {
	snap    atomic.Pointer[snapshot]
	applyMu sync.Mutex // serializes Apply; the snapshot chain is linear

	// obsm holds the execution histograms once EnableMetrics is called
	// (obs.go); nil — the default — disables recording entirely.
	obsm atomic.Pointer[Metrics]
}

// NewEngine builds a session over db, constructing the relation and
// candidate indices and collecting the cardinality statistics the
// searches share. The engine takes ownership of db: later changes must go
// through Apply.
func NewEngine(db *relation.Database) *Engine {
	st := stats.Collect(db)
	e := &Engine{}
	e.snap.Store(newSnapshot(0, db, core.NewCandidateIndex(db), st, core.NewEvaluatorStats(db, st)))
	return e
}

// Database returns the current epoch's database version.
func (e *Engine) Database() *relation.Database { return e.snap.Load().db }

// Statistics returns the current epoch's cardinality statistics.
func (e *Engine) Statistics() *stats.Stats { return e.snap.Load().st }

// Epoch returns the current epoch number: 0 at construction, incremented
// by every effective Apply.
func (e *Engine) Epoch() uint64 { return e.snap.Load().epoch }

// FindRules is the one-shot convenience over Prepare: it answers mq with
// the findRules algorithm, bounded by ctx. Callers executing the same
// metaquery repeatedly should Prepare it once instead.
func (e *Engine) FindRules(ctx context.Context, mq *core.Metaquery, opt Options) ([]core.Answer, error) {
	answers, _, err := e.FindRulesStats(ctx, mq, opt)
	return answers, err
}

// FindRulesStats is FindRules returning the engine's search counters.
func (e *Engine) FindRulesStats(ctx context.Context, mq *core.Metaquery, opt Options) ([]core.Answer, *Stats, error) {
	p, err := e.Prepare(mq, opt)
	if err != nil {
		return nil, nil, err
	}
	return p.FindRulesStats(ctx)
}

// Decide solves the decision problem ⟨DB, MQ, I, k, T⟩ on the engine's
// database through the dedicated first-witness path (Prepared.DecideFirst):
// only the queried index is evaluated and the search stops at the first
// admissible instantiation, which is returned as the witness. The YES/NO
// answer matches core.Decide; the witness may differ when several exist.
func (e *Engine) Decide(ctx context.Context, mq *core.Metaquery, ix core.Index, k rat.Rat, typ core.InstType) (bool, *core.Instantiation, error) {
	p, err := e.Prepare(mq, Options{Type: typ})
	if err != nil {
		return false, nil, err
	}
	return p.DecideFirst(ctx, ix, k)
}
