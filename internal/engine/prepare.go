package engine

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/mqgo/metaquery/internal/core"
	"github.com/mqgo/metaquery/internal/hypertree"
	"github.com/mqgo/metaquery/internal/relation"
)

// Prepared is a metaquery analyzed once and executable many times against
// its Engine's database, analogous to database/sql's *Stmt. Preparation
// performs the per-query work of Figure 4's preamble — semantic validation
// for the chosen instantiation type, deduplication of body schemes, the
// hypertree decomposition and its bottom-up order — so repeated executions
// pay only for the search itself. The node-join cache (π_χ(J(σ(λ))) per
// atom assignment) is also shared across executions, so later runs reuse
// the joins earlier runs materialized.
//
// All data-dependent execution state lives in a per-epoch layer
// (prepEpoch): when the engine's database advances through Apply, the next
// execution transparently re-derives that layer against the new snapshot —
// carrying over every cached node join whose relations the delta did not
// touch — while executions already in flight finish on the epoch they
// started with. The query analysis itself (schemes, decomposition, order)
// depends only on the metaquery and survives every delta.
//
// A Prepared is safe for concurrent use by multiple goroutines; each
// execution carries its own mutable search state.
type Prepared struct {
	eng *Engine
	mq  *core.Metaquery
	opt Options

	schemes []bodyScheme // distinct body schemes, ID = slice index
	decomp  *hypertree.Decomposition
	order   []*hypertree.Node // bottom-up

	// nodeSchemes[nodeID] lists the scheme IDs in λ(node).
	nodeSchemes map[int][]int

	headPatternIdx int

	// ep is the current per-epoch execution state; epMu serializes its
	// re-derivation when the engine's snapshot has advanced.
	epMu sync.Mutex
	ep   atomic.Pointer[prepEpoch]
}

// prepEpoch is the data-dependent half of a Prepared, bound to exactly one
// engine snapshot: the node-join cache, the decision visit order, and the
// candidate lists. A run resolves its prepEpoch once at start and
// dereferences only it thereafter, so a single execution can never
// observe two different epochs.
type prepEpoch struct {
	snap *snapshot

	// joinCache caches π_χ(J(σ(λ))) keyed by node and atom assignment,
	// shared by all executions on this epoch. Each entry keeps the
	// predicates its atoms read, so the next epoch carries over exactly the
	// joins whose relations a delta did not touch.
	joinMu    sync.RWMutex
	joinCache map[string]nodeJoinEntry

	// decideOrderNodes is the selectivity-sorted node visit order used by
	// DecideFirst runs, computed lazily once (decide.go).
	decideOrderOnce  sync.Once
	decideOrderNodes []*hypertree.Node

	// candOrder holds every body scheme's candidate atoms, indexed by
	// scheme ID; a pattern scheme's list is re-sorted by estimated
	// materialization size ascending (most selective first), so every
	// execution enumerates the candidates cheapest-to-check first.
	// headCands holds the head's candidates in candidate index order. Both
	// are resolved lazily once per epoch from the snapshot, so no execution
	// asks the candidate index again.
	candOnce  sync.Once
	candOrder [][]relation.Atom
	headCands []relation.Atom

	// nodeEst caches the per-node estimated λ-join output sizes consumed
	// by the tracing/metrics layer (estimate-vs-actual per node join),
	// computed lazily once per epoch so observed runs pay a map lookup,
	// not a re-estimation, per join.
	nodeEstOnce sync.Once
	nodeEst     map[int]float64
}

// Prepare validates mq for opt.Type and computes the query-level analysis
// (body scheme deduplication, hypertree decomposition, node order) the
// executions share.
func (e *Engine) Prepare(mq *core.Metaquery, opt Options) (*Prepared, error) {
	snap := e.snap.Load()
	if err := core.ValidateForType(snap.db, mq, opt.Type); err != nil {
		return nil, err
	}
	if err := opt.Approx.validate(); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	p := &Prepared{
		eng: e,
		mq:  mq,
		opt: opt,
	}
	p.ep.Store(&prepEpoch{snap: snap, joinCache: make(map[string]nodeJoinEntry)})

	// Distinct body schemes (the paper treats ls(MQ) as a set).
	seen := map[string]int{}
	for _, l := range mq.Body {
		if _, dup := seen[l.Key()]; dup {
			continue
		}
		seen[l.Key()] = len(p.schemes)
		p.schemes = append(p.schemes, bodyScheme{
			scheme:     l,
			patternIdx: core.PatternIndex(mq, l),
			vars:       l.Vars(),
		})
	}
	p.headPatternIdx = core.PatternIndex(mq, mq.Head)

	atoms := make([]hypertree.AtomSchema, len(p.schemes))
	for i, s := range p.schemes {
		atoms[i] = hypertree.AtomSchema{ID: i, Vars: s.vars}
	}
	p.decomp = hypertree.Decompose(atoms)
	if err := hypertree.Validate(atoms, p.decomp); err != nil {
		return nil, fmt.Errorf("engine: decomposition invalid: %w", err)
	}
	p.order = p.decomp.BottomUpOrder()

	p.nodeSchemes = make(map[int][]int, len(p.order))
	for _, n := range p.order {
		p.nodeSchemes[n.ID] = append([]int(nil), n.Lambda...)
	}
	return p, nil
}

// Engine returns the session the metaquery was prepared on.
func (p *Prepared) Engine() *Engine { return p.eng }

// Metaquery returns the prepared metaquery.
func (p *Prepared) Metaquery() *core.Metaquery { return p.mq }

// Options returns the options the metaquery was prepared with.
func (p *Prepared) Options() Options { return p.opt }

// Width returns the hypertree width of the decomposition in use.
func (p *Prepared) Width() int { return p.decomp.Width }

// epoch returns the per-epoch execution state for the engine's current
// snapshot, re-deriving it when an Apply has advanced the engine since the
// last execution. The fast path is one atomic load and one pointer
// comparison. On re-derivation, every cached node join whose relations are
// pointer-identical across the two database versions is carried over — a
// delta invalidates exactly the joins that touch a changed relation.
func (p *Prepared) epoch() *prepEpoch {
	snap := p.eng.snap.Load()
	ep := p.ep.Load()
	if ep.snap == snap {
		return ep
	}
	p.epMu.Lock()
	defer p.epMu.Unlock()
	// Re-read both under the lock: another re-derivation may have won, and
	// the engine may have advanced again meanwhile.
	snap = p.eng.snap.Load()
	ep = p.ep.Load()
	if ep.snap == snap {
		return ep
	}
	nep := &prepEpoch{snap: snap, joinCache: make(map[string]nodeJoinEntry)}
	ep.joinMu.RLock()
	for key, e := range ep.joinCache {
		if e.unchanged(ep.snap.db, snap.db) {
			nep.joinCache[key] = e
		}
	}
	ep.joinMu.RUnlock()
	p.ep.Store(nep)
	return nep
}

// nodeJoinEntry is one cached node join with the predicates of the atoms
// it joins, which are all a delta can invalidate it through.
type nodeJoinEntry struct {
	t     *relation.Table
	preds []string
}

// unchanged reports whether every relation the join reads is unchanged
// from old to new (Database.Unchanged).
func (e nodeJoinEntry) unchanged(old, new *relation.Database) bool {
	for _, pred := range e.preds {
		if !new.Unchanged(old, pred) {
			return false
		}
	}
	return true
}

// cachedJoin looks up a node join by its binary key. The string(key)
// conversion in a map index expression does not allocate, so hits are free.
func (ep *prepEpoch) cachedJoin(key []byte) (*relation.Table, bool) {
	ep.joinMu.RLock()
	e, ok := ep.joinCache[string(key)]
	ep.joinMu.RUnlock()
	return e.t, ok
}

// storeJoin records t, the join of atoms, under key and returns the
// canonical cached table (an earlier concurrent writer's, if it lost the
// race). The key string and the predicate list are materialized here, on
// the miss path only.
func (ep *prepEpoch) storeJoin(key []byte, atoms []relation.Atom, t *relation.Table) *relation.Table {
	t = t.Compact() // cached across executions; don't pin the input-sized arena
	ep.joinMu.Lock()
	if prev, ok := ep.joinCache[string(key)]; ok {
		t = prev.t
	} else {
		preds := make([]string, len(atoms))
		for i, a := range atoms {
			preds[i] = a.Pred
		}
		ep.joinCache[string(key)] = nodeJoinEntry{t: t, preds: preds}
	}
	ep.joinMu.Unlock()
	return t
}

// orderedCandidates returns the epoch's body candidate lists, indexed by
// scheme ID: a pattern scheme's candidate atoms sorted by estimated
// materialization size ascending (stable, so equal estimates keep the
// candidate index order), an ordinary atom's own atom. Ordering depends
// only on the snapshot statistics and the preparation, so it is shared by
// all executions on the epoch.
func (p *Prepared) orderedCandidates(ep *prepEpoch) [][]relation.Atom {
	p.resolveCandidates(ep)
	return ep.candOrder
}

// headCandidates returns the epoch's head candidate atoms, in candidate
// index order.
func (p *Prepared) headCandidates(ep *prepEpoch) []relation.Atom {
	p.resolveCandidates(ep)
	return ep.headCands
}

// resolveCandidates computes the epoch's candidate lists on first use.
func (p *Prepared) resolveCandidates(ep *prepEpoch) {
	ep.candOnce.Do(func() {
		lists := make([][]relation.Atom, len(p.schemes))
		for id, bs := range p.schemes {
			cands := ep.snap.cands.Candidates(bs.scheme, p.opt.Type, bs.patternIdx)
			if len(cands) >= 2 {
				rows := make([]float64, len(cands))
				for i, a := range cands {
					rows[i] = ep.snap.ev.AtomEst(a).Rows
				}
				perm := make([]int, len(cands))
				for i := range perm {
					perm[i] = i
				}
				sort.SliceStable(perm, func(i, j int) bool { return rows[perm[i]] < rows[perm[j]] })
				sorted := make([]relation.Atom, len(cands))
				for k, i := range perm {
					sorted[k] = cands[i]
				}
				cands = sorted
			}
			lists[id] = cands
		}
		ep.candOrder = lists
		ep.headCands = ep.snap.cands.Candidates(p.mq.Head, p.opt.Type, p.headPatternIdx)
	})
}

// runPool recycles run values — with their operator scratch (and its
// recycled table arenas), node-table maps, and staging buffers — across
// executions of every Prepared, so a warmed-up process runs steady-state
// searches without allocating per-run state. Runs are returned by
// run.release, which clears all table and query references first.
var runPool = sync.Pool{New: func() any { return new(run) }}

// nodeEstimates returns the epoch's per-node estimated λ-join output
// sizes (nodeEstimate over every decomposition node), computed on first
// use and shared by all observed executions on the epoch.
func (p *Prepared) nodeEstimates(ep *prepEpoch) map[int]float64 {
	ep.nodeEstOnce.Do(func() {
		m := make(map[int]float64, len(p.order))
		for _, n := range p.order {
			m[n.ID] = p.nodeEstimate(ep, n)
		}
		ep.nodeEst = m
	})
	return ep.nodeEst
}

// newRunEp builds the per-execution search state on the epoch ep with the
// effective options opt (DecideFirst swaps in single-index thresholds
// without re-preparing); the sharded paths resolve one epoch up front and
// hand it to every worker run, so all chunks of one execution search the
// same database version even if an Apply lands mid-flight. Everything
// option-independent — decomposition, node order, caches — is shared with
// the Prepared. ctx may be nil. The returned run must be handed back via
// run.release when the execution finishes; its Stats are caller-owned and
// survive the release.
func (p *Prepared) newRunEp(ctx context.Context, opt Options, ep *prepEpoch) *run {
	if ctx == nil {
		ctx = context.Background()
	}
	r := runPool.Get().(*run)
	r.p, r.ep, r.opt, r.order, r.ctx = p, ep, opt, p.order, ctx
	r.stats = &Stats{Width: p.decomp.Width, Nodes: len(p.order)}
	r.tr = resolveTracer(ctx, opt)
	r.em = p.eng.obsm.Load()
	r.span, r.rootSpan = -1, -1
	if r.rTables == nil {
		r.rTables = make(map[int]*relation.Table, len(p.order))
	}
	if r.sc == nil {
		r.sc = relation.NewScratch()
	}
	return r
}

// FindRules executes the prepared metaquery, returning every admissible
// answer sorted by rule text. The search stops promptly with ctx.Err()
// when ctx is cancelled or its deadline passes.
func (p *Prepared) FindRules(ctx context.Context) ([]core.Answer, error) {
	answers, _, err := p.FindRulesStats(ctx)
	return answers, err
}

// FindRulesStats is FindRules returning the execution's search counters.
//
// With Options.Workers > 1 the enumeration itself is parallel: the body
// search is sharded across workers (see Stream) and the merged answers are
// sorted afterwards, so the result is identical to the sequential run.
func (p *Prepared) FindRulesStats(ctx context.Context) ([]core.Answer, *Stats, error) {
	answers, st, err := p.collect(ctx, nil)
	if err != nil {
		return nil, nil, err
	}
	return answers, st, nil
}

// collect is the collecting consumer of enumerate behind FindRules and
// ExplainRun: it gathers every answer and sorts them by rule text, so the
// result does not depend on the worker count. On error it returns the
// answers found so far.
func (p *Prepared) collect(ctx context.Context, ex *Explain) ([]core.Answer, *Stats, error) {
	var answers []core.Answer
	st, err := p.enumerate(ctx, "findrules", nil, ex, func(a core.Answer) error {
		answers = append(answers, a)
		return nil
	})
	core.SortAnswers(answers)
	return answers, st, err
}

// enumerate is the one answer producer behind Stream, FindRules and
// ExplainRun: the Figure 4 search with head enumeration, sharded across
// Options.Workers when the query partitions (parallel.go) and sequential
// under a root span named root otherwise, handing every answer to emit in
// discovery order. Options.Limit, or emit returning errStop, ends the run
// early without an error. The counters are recorded into st when it is
// non-nil (into the run's own Stats otherwise) and returned. A non-nil ex
// is seeded from the execution's epoch and observes every node table.
func (p *Prepared) enumerate(ctx context.Context, root string, st *Stats, ex *Explain, emit func(core.Answer) error) (*Stats, error) {
	ep := p.tracedEpoch(resolveTracer(ctx, p.opt))
	if ex != nil {
		ex.seed(p, ep)
	}
	if p.opt.Workers > 1 {
		if st == nil {
			st = &Stats{}
		}
		if err := p.streamParallel(ctx, ep, st, ex, emit); err != errNoShard {
			if err == errStop {
				err = nil
			}
			return st, err
		}
	}
	r := p.newRunEp(ctx, p.opt, ep)
	defer r.release()
	r.beginRoot(root)
	defer r.endRoot()
	if st != nil {
		*st = *r.stats
		r.stats = st
	}
	r.explain, r.emit = ex, emit
	err := r.search()
	if err == errStop || err == errLimit {
		err = nil
	}
	return r.stats, err
}
