package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"

	"github.com/mqgo/metaquery/internal/core"
	"github.com/mqgo/metaquery/internal/gen"
	"github.com/mqgo/metaquery/internal/relation"
)

// workload is one traffic mix against an in-process server. why and
// predict are the reasons the workload exists and the layers it is
// expected to move (or leave alone); both are printed with every result so
// a later claim can be checked against what the workload was built for.
type workload struct {
	name    string
	why     string
	predict []string
	build   func(seed int64) *inputs
}

// workloads are the benchmark's traffic mixes. Every workload carries all
// five request classes (query, stream, exact decide, approximate decide and
// PATCH), so every end-to-end metric exists on every workload; what differs
// is the data, the query set and which class dominates the time. Each
// workload is driven by one closed-loop client: on a host that lends the
// benchmark two shared cores, a second client made the figures measure the
// scheduler more than the server.
var workloads = []*workload{
	{
		name: "mine",
		why: "Enumeration-heavy steady state: after warm-up every request hits the prepared LRU and the " +
			"node-join cache, so time goes to body search, head search, exact index arithmetic, answer " +
			"materialization and JSON encoding. Prepare, Apply and the sampler do no work on this database.",
		predict: []string{
			"moves: engine.findrules_ms, engine.search_self_ms, server.resp_kb, server.overhead_ms -> query_ref_p50_ms, answers_per_ref_s",
			"moves: runtime.alloc_mb_per_req, runtime.gc_cycles_per_s -> query_ref_p98_ms, allocs_per_req",
			"stays: engine.node_join_miss_ratio ~ 0, engine.rebind_ms ~ 0, server.prep_hit_ratio = 1",
			"PATCH traffic goes to a separate side database so this database's caches stay warm",
		},
		build: buildMine,
	},
	{
		name: "decide",
		why: "Big data, tiny answers: one analyst waiting at a prompt on a 100k-tuple database. SemijoinCountS " +
			"over 25k-row populations, the sampler and first-witness cancellation dominate; set-up is the " +
			"100k-tuple load plus NewEngine statistics; transport and answer materialization are negligible.",
		predict: []string{
			"moves: engine.decide_ms, relation.semijoin_counts_per_req, engine.chunk_imbalance -> decide_ref_p50_ms",
			"moves: engine.decide_approx_ms, relation.sample_ms, approx.samples_per_req -> approx_ref_p50_ms",
			"moves: relation.db_build_ms, engine.new_engine_ms -> setup_s",
			"stays: server.overhead_ms ~ 0, server.resp_kb small, server.prep_hit_ratio = 1",
			"PATCH traffic goes to a separate side database so the decision caches stay warm",
		},
		build: buildDecide,
	},
	{
		name: "churn",
		why: "Writes beside reads: every read follows a PATCH of the same database. " +
			"Exercises Engine.Apply (copy-on-write, statistics and candidate-index maintenance, compaction), " +
			"epoch rebinding and node joins re-run on changed relations; a read-side gain bought with more " +
			"caching shows its cost here.",
		predict: []string{
			"moves: engine.apply_ms, server.apply_overhead_ms -> apply_ref_p50_ms",
			"moves: engine.rebind_ms, engine.node_join_miss_ratio, engine.node_join_ms, relation.node_join_rows, stats.est_error -> query_ref_p98_ms, decide_ref_p98_ms",
			"moves: engine.new_engine_ms -> setup_s",
		},
		build: buildChurn,
	},
}

func lookupWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// relRows is one relation as constant names: the form the server receives
// (inline JSON) and the form the direct engine calls rebuild from.
type relRows struct {
	Name   string     `json:"name"`
	Arity  int        `json:"arity"`
	Tuples [][]string `json:"tuples"`
}

// namedDB is one database the workload loads through POST /v1/db/{name}.
type namedDB struct {
	name string
	rels []relRows
}

// searchSpec is one distinct /v1/query and /v1/stream request.
type searchSpec struct {
	Query  string `json:"query"`
	Type   int    `json:"type"`
	MinSup string `json:"min_sup,omitempty"`
	MinCnf string `json:"min_cnf,omitempty"`
}

// decideSpec is one distinct decision; it is sent once exact and once
// approximate. k and eps are fixed before timing so that no true index
// value lies strictly inside (k-eps, k+eps) (see fixBands).
type decideSpec struct {
	query   string
	typ     int
	index   string
	k       string
	eps     float64
	workers int
}

// op kinds, one per request class.
const (
	opQuery = iota
	opStream
	opDecide
	opApprox
	opPatch
	numOps
)

var opNames = [numOps]string{"query", "stream", "decide", "approx", "apply"}

// inputs is everything one workload run sends, derived from the seed
// alone. The server receives only these.
type inputs struct {
	main      namedDB
	side      *namedDB // PATCH target when the workload's own database must stay unchanged
	searches  []searchSpec
	decisions []decideSpec
	// script is the delta sequence PATCH traffic cycles through (see
	// deltaCycle): every cycle starts from the loaded database, so the
	// query cost does not drift with the number of PATCHes a run sends.
	script []jsonDelta
	// schedule is the client's repeating request cycle.
	schedule []int
	// churn marks a workload whose reads follow PATCHes of their own
	// database: answers are checked once the PATCH cycle is finished,
	// against a rebuilt database.
	churn bool
}

// distinct lists every distinct search and decision request as (op, index).
func (in *inputs) distinct() [][2]int {
	var out [][2]int
	for i := range in.searches {
		out = append(out, [2]int{opQuery, i}, [2]int{opStream, i})
	}
	for i := range in.decisions {
		out = append(out, [2]int{opDecide, i}, [2]int{opApprox, i})
	}
	return out
}

func (in *inputs) patchDB() namedDB {
	if in.side != nil {
		return *in.side
	}
	return in.main
}

// jsonDelta is the PATCH /v1/db/{name} body.
type jsonDelta struct {
	Relations []jsonRelDelta `json:"relations"`
}

type jsonRelDelta struct {
	Name   string     `json:"name"`
	Insert [][]string `json:"insert,omitempty"`
	Delete [][]string `json:"delete,omitempty"`
}

// scriptBatches is the number of gen.DeltaScript batches per PATCH cycle.
const scriptBatches = 64

func buildMine(seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	// Two arity-3 and two arity-2 relations of 300 tuples, column 0 skewed:
	// the arities are fixed rather than drawn, so the instantiation space
	// is the same for every seed. At skew 0.5 support pruning keeps the
	// same number of type-2 chain answers on every seed tried, where skew 1
	// varied it by half and the run's allocations with it.
	wide := gen.DBConfig{Relations: 2, MinArity: 3, MaxArity: 3, MinTuples: 300, MaxTuples: 300,
		Domain: 1500, Skew: 0.5, SkewCols: []int{0}}.Generate(rng)
	narrow := gen.DBConfig{Relations: 2, MinArity: 2, MaxArity: 2, MinTuples: 300, MaxTuples: 300,
		Domain: 1500, Skew: 0.5, SkewCols: []int{0}}.Generate(rng)
	main := namedDB{name: "mine", rels: []relRows{
		rowsOf(wide, "r0", "r0"), rowsOf(narrow, "r0", "r1"),
		rowsOf(wide, "r1", "r2"), rowsOf(narrow, "r1", "r3"),
	}}
	side, script := sideDB(seed)
	in := &inputs{
		main: main,
		side: &side,
		searches: []searchSpec{
			{Query: "R(X,Z) <- P(X,Y), Q(Y,Z)", Type: 0},
			{Query: "R(X,Z) <- P(X,Y), Q(Y,Z)", Type: 1},
			{Query: "R(X,Z) <- P(X,Y), Q(Y,Z)", Type: 2, MinSup: "3/10"},
			// Triangle: hypertree width 2.
			{Query: "R(X,Y) <- P(X,Y), Q(Y,Z), S(Z,X)", Type: 1},
			// Star whose bodies admit no head: no relation has arity 4.
			{Query: "R(X,Y,Z,W) <- P(X,Y), Q(X,Z), S(X,W)", Type: 0, MinSup: "1/10"},
			// α-renamed spellings of the type-1 chain, the triangle and the
			// type-0 chain: each shares its original's prepared entry
			// through CanonicalKey.
			{Query: "T(A,C) <- U(A,B), V(B,C)", Type: 1},
			{Query: "H(B,A) <- Q(B,A), P(A,C), S(C,B)", Type: 1},
			{Query: "H(U,W) <- A(U,V), B(V,W)", Type: 0},
		},
		script: script,
		// The cheap classes run twice per cycle, for more samples in their
		// percentiles at little cost to the enumeration classes.
		schedule: []int{opQuery, opDecide, opApprox, opPatch, opStream, opDecide, opApprox, opPatch},
	}
	// Decision bounds come from the true index values (see fixBands).
	in.decisions = []decideSpec{
		{query: "R(X,Z) <- P(X,Y), Q(Y,Z)", typ: 1, index: "cnf"},
		{query: "R(X,Y) <- P(X,Y), Q(Y,Z), S(Z,X)", typ: 1, index: "cnf"},
		{query: "R(X,Z) <- P(X,Y), Q(Y,Z)", typ: 0, index: "sup"},
		{query: "R(X,Z) <- P(X,Y), Q(Y,Z)", typ: 1, index: "cvr"},
	}
	return in
}

func buildDecide(seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	// The E26 shape: four 25k-row binary body relations whose second
	// column hits the 97-value head domain on exactly one row in five, and
	// six unary head relations holding the whole head domain. Every
	// (body, head) pair therefore has cnf exactly 1/5, far outside the
	// ε-band of every bound below. The seed picks which rows carry head
	// values, which values they carry, and the noise constants.
	const bodyRels, rowsPer, headRels, headVals = 4, 25_000, 6, 97
	var rels []relRows
	for i := 0; i < bodyRels; i++ {
		r := relRows{Name: fmt.Sprintf("p%d", i), Arity: 2, Tuples: make([][]string, rowsPer)}
		perm := rng.Perm(rowsPer)
		for j := 0; j < rowsPer; j++ {
			v := fmt.Sprintf("z%d-%d-%d", seed, i, j)
			if perm[j] < rowsPer/5 {
				v = fmt.Sprintf("v%d", rng.Intn(headVals))
			}
			r.Tuples[j] = []string{fmt.Sprintf("p%dx%d", i, j), v}
		}
		rels = append(rels, r)
	}
	for i := 0; i < headRels; i++ {
		r := relRows{Name: fmt.Sprintf("h%d", i), Arity: 1}
		for k := 0; k < headVals; k++ {
			r.Tuples = append(r.Tuples, []string{fmt.Sprintf("v%d", k)})
		}
		rels = append(rels, r)
	}
	side, script := sideDB(seed)
	workers := runtime.NumCPU()
	q := "R(Y) <- P(X,Y)"
	in := &inputs{
		main: namedDB{name: "decide", rels: rels},
		side: &side,
		decisions: []decideSpec{
			{query: q, index: "cnf", k: "1/2", eps: 0.1, workers: workers},
			{query: q, index: "cnf", k: "3/4", eps: 0.1, workers: workers},
			{query: q, index: "cnf", k: "1/10", eps: 0.1, workers: workers},
			{query: q, index: "sup", k: "1/2", eps: 0.1, workers: workers},
		},
		script: script,
		// Exact decisions take most of the time; the sub-millisecond
		// approximate ones and the PATCHes run several times per cycle,
		// for more samples in their percentiles.
		schedule: []int{opDecide, opApprox, opQuery, opApprox, opPatch, opStream, opApprox, opPatch},
	}
	// Searches name both relations: one rule each, one 25k-row semijoin
	// count, so the client still completes 1,000 of each class in 35 s.
	for i := 0; i < bodyRels; i++ {
		in.searches = append(in.searches, searchSpec{Query: fmt.Sprintf("h%d(Y) <- p%d(X,Y)", i, i), Type: 0, MinCnf: "1/10"})
	}
	return in
}

func buildChurn(seed int64) *inputs {
	// The E25 shape (five binary relations, uniform values), at 4,000 rows
	// so that the client completes at least 1,000 reads of each class in a
	// 35 s window.
	const rows = 4000
	db := gen.DBConfig{Relations: 5, MinArity: 2, MaxArity: 2, MinTuples: rows, MaxTuples: rows,
		Domain: rows}.Generate(rand.New(rand.NewSource(seed)))
	main := namedDB{name: "churn", rels: allRows(db)}
	return &inputs{
		main: main,
		searches: []searchSpec{
			// Single pattern, type 1: every binary relation (in both column
			// orders) against the head relation r0.
			{Query: "r0(X,Y) <- P(X,Y)", Type: 1},
		},
		decisions: []decideSpec{
			{query: "R(X,Z) <- P(X,Y), Q(Y,Z)", typ: 0, index: "sup"},
		},
		script:   deltaCycle(seed, "churn", db),
		schedule: []int{opPatch, opQuery, opPatch, opDecide, opPatch, opStream, opPatch, opApprox},
		churn:    true,
	}
}

// sideDB is the E25-shaped database that takes the PATCH traffic of the
// mine and decide workloads, with its delta cycle. At 2,000 rows a PATCH
// costs about a millisecond, well above the scheduling jitter of the
// process, so its latency percentiles measure Apply.
func sideDB(seed int64) (namedDB, []jsonDelta) {
	db := gen.DBConfig{Relations: 5, MinArity: 2, MaxArity: 2, MinTuples: 2000, MaxTuples: 2000,
		Domain: 2000}.Generate(rand.New(rand.NewSource(seed + 7919)))
	return namedDB{name: "side", rels: allRows(db)}, deltaCycle(seed, "side", db)
}

// deltaCycle turns gen.DeltaScript's batches for db into the PATCH
// sequence: one PATCH per relation delta, then one PATCH per relation that
// restores db's tuples, so every cycle ends where it started. Deltas that
// create relations are left out, and batches are split by relation:
// applying a delta to a loaded relation costs about a thousand times more
// than one to a relation the script just created, so mixed batches would
// make PATCH latency a seed-dependent blend of two cost modes. The deltas
// are then dealt round-robin over the relations, each relation keeping its
// own order and the same number of deltas, so PATCH k of a cycle always
// touches relation k mod len(relations): a read that follows a PATCH
// re-runs work for every relation in turn, whatever the seed and however
// the reads interleave with the PATCHes.
func deltaCycle(seed int64, shape string, db *relation.Database) []jsonDelta {
	perRel := map[string][]jsonDelta{}
	for _, batch := range gen.DeltaScript(&gen.Scenario{Seed: seed, Shape: shape, DB: db}, scriptBatches) {
		for _, td := range batch {
			if db.Relation(td.Rel) != nil {
				perRel[td.Rel] = append(perRel[td.Rel], jsonDelta{Relations: []jsonRelDelta{{Name: td.Rel, Insert: td.Insert, Delete: td.Delete}}})
			}
		}
	}
	names := db.RelationNames()
	rounds := -1
	for _, name := range names {
		if n := len(perRel[name]); rounds < 0 || n < rounds {
			rounds = n
		}
	}
	sim := db.Clone()
	var out []jsonDelta
	for i := 0; i < rounds; i++ {
		for _, name := range names {
			d := perRel[name][i]
			applyDelta(sim, d)
			out = append(out, d)
		}
	}
	for _, name := range names {
		now, was := tupleSet(sim, name), tupleSet(db, name)
		rd := jsonRelDelta{Name: name}
		for _, k := range sortedKeys(now) {
			if was[k] == nil {
				rd.Delete = append(rd.Delete, now[k])
			}
		}
		for _, k := range sortedKeys(was) {
			if now[k] == nil {
				rd.Insert = append(rd.Insert, was[k])
			}
		}
		if len(rd.Insert)+len(rd.Delete) > 0 {
			out = append(out, jsonDelta{Relations: []jsonRelDelta{rd}})
		}
	}
	return out
}

// applyDelta applies d to db with plain relation operations, deletes
// before inserts: the engine-free replay that the churn check rebuilds its
// reference database with.
func applyDelta(db *relation.Database, d jsonDelta) {
	for _, rd := range d.Relations {
		r := db.Relation(rd.Name)
		for _, row := range rd.Delete {
			t := make(relation.Tuple, len(row))
			found := true
			for i, c := range row {
				t[i], found = db.Dict().Lookup(c)
				if !found {
					break
				}
			}
			if found {
				r.Delete(t)
			}
		}
		for _, row := range rd.Insert {
			db.MustInsertNamed(rd.Name, row...)
		}
	}
}

// tupleSet maps each tuple of relation name to its constants, keyed by the
// joined constants.
func tupleSet(db *relation.Database, name string) map[string][]string {
	out := map[string][]string{}
	for _, t := range db.Relation(name).Tuples() {
		row := make([]string, len(t))
		for i, v := range t {
			row[i] = db.Dict().Name(v)
		}
		out[strings.Join(row, "\x00")] = row
	}
	return out
}

func sortedKeys(m map[string][]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// rowsOf renders relation from of db as rows named to.
func rowsOf(db *relation.Database, from, to string) relRows {
	r := db.Relation(from)
	out := relRows{Name: to, Arity: r.Arity()}
	for _, t := range r.Tuples() {
		row := make([]string, len(t))
		for i, v := range t {
			row[i] = db.Dict().Name(v)
		}
		out.Tuples = append(out.Tuples, row)
	}
	return out
}

func allRows(db *relation.Database) []relRows {
	var out []relRows
	for _, name := range db.RelationNames() {
		out = append(out, rowsOf(db, name, name))
	}
	return out
}

// buildDB materializes rows as a database: the relation layer's own load
// path (NewDatabase, AddRelation, InsertNamed), which the server's inline
// load also takes.
func buildDB(rels []relRows) (*relation.Database, error) {
	db := relation.NewDatabase()
	for _, r := range rels {
		if _, err := db.AddRelation(r.Name, r.Arity); err != nil {
			return nil, err
		}
		for _, row := range r.Tuples {
			if err := db.InsertNamed(r.Name, row...); err != nil {
				return nil, err
			}
		}
	}
	return db, nil
}

// parseQuery is the core layer's entry: parse plus the canonical key the
// server's prepared cache is keyed by.
func parseQuery(q string) (*core.Metaquery, string, error) {
	mq, err := core.Parse(q)
	if err != nil {
		return nil, "", err
	}
	return mq, mq.CanonicalKey(), nil
}
