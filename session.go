package metaquery

import (
	"context"
	"runtime"

	"github.com/mqgo/metaquery/internal/core"
	"github.com/mqgo/metaquery/internal/engine"
)

// Engine is a reusable metaquerying session bound to one database,
// analogous to database/sql's *DB: it builds and caches the per-database
// structures every search consults (relation indices, arity/candidate
// buckets, materialized atom tables) once, and shares them across all
// queries prepared on it. Safe for concurrent use.
//
// The database is mutable through Engine.Apply, which absorbs batched
// tuple inserts/deletes into a new epoch snapshot (incrementally
// maintained statistics, candidate index and caches) without disturbing
// in-flight executions; direct mutation of the *Database is not allowed
// while the Engine is in use.
type Engine = engine.Engine

// Delta is a batched database change (per-relation tuple inserts and
// deletes) applied atomically by Engine.Apply.
type Delta = engine.Delta

// RelationDelta is one relation's change within a Delta.
type RelationDelta = engine.RelationDelta

// ApplyResult reports what an Engine.Apply did: the epoch now current and
// the effective insert/delete/compaction counts.
type ApplyResult = engine.ApplyResult

// Prepared is a metaquery analyzed once — validation, hypertree
// decomposition, scheme ordering — and executable many times against its
// Engine's database, analogous to database/sql's *Stmt. Safe for
// concurrent use.
//
// Execute with FindRules / FindRulesStats (full sorted answer set),
// Stream / StreamStats (incremental answers in discovery order; breaking
// out of the loop abandons the remaining search), or DecideFirst /
// DecideFirstStats (first-witness decision answering: only the queried
// index is evaluated and the search stops at the first witness).
type Prepared = engine.Prepared

// Explain is the plan report of one prepared execution: the decomposition
// node visit order with the cost planner's per-node output estimates and
// the actually observed node-table row counts side by side. Collect one
// with Prepared.ExplainRun; it is the estimate-vs-actual debugging surface
// of the cardinality-statistics subsystem (cmd/metaquery -explain prints
// it).
type Explain = engine.Explain

// ExplainNode is one node's record in an Explain report.
type ExplainNode = engine.ExplainNode

// NewEngine builds a reusable session over db. Use eng.Prepare(mq, opt) to
// analyze a metaquery once and execute it many times, eng.FindRules for
// one-shot queries that still share the database caches, and eng.Decide
// for engine-accelerated decision problems.
//
// Construction also collects the cardinality statistics (per-relation row
// counts, per-column distinct counts, most-common-value sketches) behind
// the engine's cost-based join planner; they are cached on the engine and
// invalidated with it.
func NewEngine(db *Database) *Engine { return engine.NewEngine(db) }

// FindRulesContext is FindRules bounded by ctx: the search stops promptly
// with ctx.Err() when ctx is cancelled or its deadline passes.
func FindRulesContext(ctx context.Context, db *Database, mq *Metaquery, opt Options) ([]Answer, error) {
	return engine.NewEngine(db).FindRules(ctx, mq, opt)
}

// FindRulesStatsContext is FindRulesContext returning the engine's search
// counters.
func FindRulesStatsContext(ctx context.Context, db *Database, mq *Metaquery, opt Options) ([]Answer, *Stats, error) {
	return engine.NewEngine(db).FindRulesStats(ctx, mq, opt)
}

// NaiveFindRulesContext is NaiveFindRules bounded by ctx: enumeration
// stops promptly with ctx.Err() when ctx is cancelled or its deadline
// passes.
func NaiveFindRulesContext(ctx context.Context, db *Database, mq *Metaquery, typ InstType, th Thresholds) ([]Answer, error) {
	return core.NaiveAnswersContext(ctx, db, mq, typ, th)
}

// DecideContext is Decide bounded by ctx: the search stops promptly with
// ctx.Err() when ctx is cancelled or its deadline passes.
func DecideContext(ctx context.Context, db *Database, mq *Metaquery, ix Index, k Rat, typ InstType) (bool, *Instantiation, error) {
	return engine.NewEngine(db).Decide(ctx, mq, ix, k, typ)
}

// DecideFirstContext solves the decision problem ⟨DB, MQ, I, k, T⟩ with
// the engine's dedicated first-witness path: the hypertree-guided body
// search evaluates only the queried index, visits decomposition nodes
// smallest-estimated-table first, skips head enumeration when the index
// does not depend on the head (support), and stops at the first witness.
//
// It replaces the earlier idiom of running the full FindRules search with
// Options.Limit = 1, which paid the entire materialize-then-filter cost on
// a NO verdict. Callers deciding repeatedly over one database should hold
// a NewEngine and use Prepared.DecideFirst directly.
func DecideFirstContext(ctx context.Context, db *Database, mq *Metaquery, ix Index, k Rat, typ InstType) (bool, *Instantiation, error) {
	return engine.NewEngine(db).Decide(ctx, mq, ix, k, typ)
}

// DecideParallelContext is DecideParallel bounded by ctx: all workers stop
// promptly with ctx.Err() when ctx is cancelled or its deadline passes. A
// witness found before cancellation is still returned.
func DecideParallelContext(ctx context.Context, db *Database, mq *Metaquery, ix Index, k Rat, typ InstType, workers int) (bool, *Instantiation, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p, err := engine.NewEngine(db).Prepare(mq, Options{Type: typ, Workers: workers})
	if err != nil {
		return false, nil, err
	}
	return p.DecideFirst(ctx, ix, k)
}
