// Package metaquery is a library for metaquerying relational databases: the
// data-mining technique of Shen, Ong, Mitbander and Zaniolo in which
// second-order Horn templates ("metaqueries") with predicate variables are
// instantiated against a database to discover plausible inter-relation
// dependencies.
//
// The library is a from-scratch reproduction of
//
//	F. Angiulli, R. Ben-Eliyahu-Zohary, G. Ianni, L. Palopoli,
//	"Computational Properties of Metaquerying Problems", PODS 2000.
//
// It implements the paper's three instantiation semantics (types 0, 1 and
// 2), the plausibility indices support, confidence and cover with exact
// rational arithmetic, the acyclicity and hypertree-width machinery of
// Sections 3.4 and 4, and two answering engines: a naive reference
// enumerator and the findRules algorithm of Figure 4 (hypertree-guided
// search with semijoin full reducers and support pruning).
//
// # Quick start
//
//	db := metaquery.NewDatabase()
//	db.MustInsertNamed("citizen", "john", "italy")
//	db.MustInsertNamed("language", "italy", "italian")
//	db.MustInsertNamed("speaks", "john", "italian")
//
//	mq := metaquery.MustParse("R(X,Z) <- P(X,Y), Q(Y,Z)")
//	answers, err := metaquery.FindRules(db, mq, metaquery.Options{
//	    Type:       metaquery.Type2,
//	    Thresholds: metaquery.AllAbove(metaquery.MustRat("0.3"),
//	        metaquery.MustRat("0.5"), metaquery.MustRat("0")),
//	})
//
// Each answer is an ordinary Horn rule (e.g. "speaks(X,Z) <- citizen(X,Y),
// language(Y,Z)") with its exact support, confidence and cover.
//
// # Sessions, preparation and streaming
//
// Metaquerying is interactive: many queries are asked of one database, and
// the instantiation space of a single query can be exponential. The
// Engine/Prepared API (modeled on database/sql's DB/Stmt pair) amortizes
// the per-database and per-query preprocessing and keeps runaway searches
// controllable:
//
//	eng := metaquery.NewEngine(db)        // per-database indices, built once
//	prep, err := eng.Prepare(mq, opts)    // per-query analysis, done once
//
//	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
//	defer cancel()
//	answers, err := prep.FindRules(ctx)   // full sorted answer set
//
//	for a, err := range prep.Stream(ctx) { // incremental, discovery order
//	    if err != nil { ... }              // in-band search/ctx error
//	    use(a)
//	    break // abandoning the loop abandons the remaining search
//	}
//
// The free functions FindRules, Decide and DecideParallel remain available
// as thin wrappers over a one-shot Engine (both deciders run its
// first-witness path; DecideParallel with Options.Workers), and
// NaiveFindRules keeps the paper's naive enumeration as the reference.
// Each has a context-aware variant (FindRulesContext, DecideContext, ...)
// that stops promptly with ctx.Err() on cancellation.
package metaquery

import (
	"context"

	"github.com/mqgo/metaquery/internal/core"
	"github.com/mqgo/metaquery/internal/engine"
	"github.com/mqgo/metaquery/internal/rat"
	"github.com/mqgo/metaquery/internal/relation"
)

// Database is a finite relational database instance (D, R1, ..., Rn).
type Database = relation.Database

// Relation is a named, fixed-arity set of tuples.
type Relation = relation.Relation

// Tuple is an ordered list of interned constants.
type Tuple = relation.Tuple

// Value is an interned database constant.
type Value = relation.Value

// Atom is a predicate applied to terms, the building block of rules.
type Atom = relation.Atom

// Metaquery is a second-order Horn template T <- L1, ..., Lm.
type Metaquery = core.Metaquery

// LiteralScheme is one literal of a metaquery: a relation pattern (with a
// predicate variable) or an ordinary atom.
type LiteralScheme = core.LiteralScheme

// Rule is an ordinary Horn rule, the result of instantiating a metaquery.
type Rule = core.Rule

// Instantiation is a consistent substitution of relation patterns by atoms.
type Instantiation = core.Instantiation

// Answer is one discovered rule with its plausibility indices.
type Answer = core.Answer

// Thresholds carries strict admissibility thresholds for the indices.
type Thresholds = core.Thresholds

// InstType selects the instantiation semantics.
type InstType = core.InstType

// Instantiation types (Definitions 2.2-2.4 of the paper).
const (
	// Type0 matches patterns to same-arity relations, arguments untouched.
	Type0 = core.Type0
	// Type1 additionally allows argument permutation.
	Type1 = core.Type1
	// Type2 allows matching into wider relations with fresh padding
	// variables.
	Type2 = core.Type2
)

// Index identifies a plausibility index.
type Index = core.Index

// The plausibility indices of Definition 2.7.
const (
	// Sup is support: the largest fraction, over body relations, of tuples
	// participating in the body join.
	Sup = core.Sup
	// Cnf is confidence: the fraction of body-satisfying assignments that
	// also satisfy the head.
	Cnf = core.Cnf
	// Cvr is cover: the fraction of head tuples implied by the body.
	Cvr = core.Cvr
)

// Rat is an exact non-negative rational number; all index values and
// thresholds are Rats (never floats).
type Rat = rat.Rat

// Options configures the findRules engine.
type Options = engine.Options

// ApproxOptions configures the sampling ε–δ approximate decision path
// (Prepared.DecideApprox) through Options.Approx.
type ApproxOptions = engine.ApproxOptions

// Stats reports engine search-effort counters.
type Stats = engine.Stats

// NewDatabase returns an empty database.
func NewDatabase() *Database { return relation.NewDatabase() }

// LoadCSVDir loads every *.csv file in dir as a relation named after the
// file. See the cmd/metaquery tool for the expected layout.
func LoadCSVDir(dir string) (*Database, error) { return relation.LoadCSVDir(dir) }

// SaveCSVDir writes every relation of db as <name>.csv under dir.
func SaveCSVDir(db *Database, dir string) error { return relation.SaveCSVDir(db, dir) }

// Parse parses a metaquery from textual syntax, e.g.
// "R(X,Z) <- P(X,Y), Q(Y,Z)". Upper-case-initial predicates are predicate
// variables; lower-case or double-quoted predicates are relation names;
// "_" is a mute variable, fresh at each occurrence.
func Parse(s string) (*Metaquery, error) { return core.Parse(s) }

// MustParse is Parse panicking on error.
func MustParse(s string) *Metaquery { return core.MustParse(s) }

// NewRat returns the exact rational num/den.
func NewRat(num, den int64) Rat { return rat.New(num, den) }

// ParseRat parses "a/b", "0.75" or "1" into an exact rational.
func ParseRat(s string) (Rat, error) { return rat.Parse(s) }

// MustRat is ParseRat panicking on error.
func MustRat(s string) Rat { return rat.MustParse(s) }

// AllAbove builds thresholds requiring sup > ks, cnf > kc and cvr > kv
// (all strict, as in the paper's decision problems).
func AllAbove(ks, kc, kv Rat) Thresholds { return core.AllAbove(ks, kc, kv) }

// SingleIndex builds thresholds constraining only one index.
func SingleIndex(ix Index, k Rat) Thresholds { return core.SingleIndex(ix, k) }

// FindRules answers mq over db with the findRules algorithm (Figure 4 of
// the paper): all instantiations whose indices pass the thresholds, with
// exact index values, sorted by rule text. It is a thin wrapper over a
// one-shot Engine; see FindRulesContext for cancellation and NewEngine /
// Engine.Prepare for amortizing repeated queries.
func FindRules(db *Database, mq *Metaquery, opt Options) ([]Answer, error) {
	return FindRulesContext(context.Background(), db, mq, opt)
}

// FindRulesStats is FindRules returning the engine's search counters.
func FindRulesStats(db *Database, mq *Metaquery, opt Options) ([]Answer, *Stats, error) {
	return FindRulesStatsContext(context.Background(), db, mq, opt)
}

// NaiveFindRules answers mq by exhaustive enumeration and direct index
// evaluation: the reference implementation the engine is tested against.
func NaiveFindRules(db *Database, mq *Metaquery, typ InstType, th Thresholds) ([]Answer, error) {
	return NaiveFindRulesContext(context.Background(), db, mq, typ, th)
}

// Decide solves the decision problem ⟨DB, MQ, I, k, T⟩ of the paper: is
// there a type-T instantiation with I(σ(MQ)) > k? It returns a witness
// instantiation on YES. It is a thin wrapper over a one-shot Engine's
// first-witness path (Prepared.DecideFirst).
func Decide(db *Database, mq *Metaquery, ix Index, k Rat, typ InstType) (bool, *Instantiation, error) {
	return DecideContext(context.Background(), db, mq, ix, k, typ)
}

// Top returns the k highest-ranked answers by the given index (descending,
// deterministic tie-breaking); k <= 0 returns all, ranked.
func Top(answers []Answer, by Index, k int) []Answer {
	return engine.TopAnswers(answers, by, k)
}

// DecideParallel is Decide over a one-shot Engine whose first-witness
// search runs on worker goroutines: they claim chunks of the first
// decomposition node's candidate atoms off a shared cursor and stop at the
// first witness (see the paper's Section 5 parallelizability remark).
// workers <= 0 selects GOMAXPROCS; workers == 1 runs sequentially. The
// verdict equals Decide's; the witness may differ when several exist.
func DecideParallel(db *Database, mq *Metaquery, ix Index, k Rat, typ InstType, workers int) (bool, *Instantiation, error) {
	return DecideParallelContext(context.Background(), db, mq, ix, k, typ, workers)
}

// Support computes sup(r) over db (Definition 2.7).
func Support(db *Database, r Rule) (Rat, error) { return core.Support(db, r) }

// Confidence computes cnf(r) over db (Definition 2.7).
func Confidence(db *Database, r Rule) (Rat, error) { return core.Confidence(db, r) }

// Cover computes cvr(r) over db (Definition 2.7).
func Cover(db *Database, r Rule) (Rat, error) { return core.Cover(db, r) }
