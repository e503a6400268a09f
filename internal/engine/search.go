package engine

import (
	"context"
	"fmt"
	"slices"
	"time"

	"github.com/mqgo/metaquery/internal/core"
	"github.com/mqgo/metaquery/internal/hypertree"
	"github.com/mqgo/metaquery/internal/obs"
	"github.com/mqgo/metaquery/internal/relation"
)

// This file is the engine's single body-search core: a resumable
// depth-first walk of the decomposition node order that yields each
// complete body instantiation lazily, together with its fully reduced node
// tables. Every execution mode — batch FindRules, incremental Stream,
// ExplainRun, and the first-witness DecideFirst and DecideApprox — is a
// consumer of this one iterator, sequential or sharded (parallel.go). The
// modes differ only in what they do with each yielded body, and that work
// also exists once (heads.go): one support loop over the body atoms
// (forEachBodyAtom) and one head walk (forEachHead). Enumeration
// (findHeads) visits the heads to emit answers; the one decider
// (decide.go) visits them, or only the support loop, to stop at the first
// witness, with an exact or a sampled fraction test.

// bodyScheme couples a distinct body literal scheme with the data the
// engine needs repeatedly.
type bodyScheme struct {
	scheme     core.LiteralScheme
	patternIdx int // index in rep(MQ) for fresh-variable keying; -1 if atom
	vars       []string
}

// body is one complete body instantiation as delivered by the iterator
// core: the (partial, head-less) instantiation σb and the node tables
// after both semijoin full-reducer halves. Both fields are reused between
// yields; consumers must clone what they keep.
type body struct {
	sigma *core.Instantiation
	s     map[int]*relation.Table
}

// run is the per-execution state of one search over a Prepared metaquery:
// the context, the effective options, the node visit order, the effort
// counters, the current node tables of Figure 4's first half, and the
// consumer hooks. Everything shared across executions lives on run.p
// (query analysis) and run.ep (the epoch's caches and snapshot) and is
// only read here, which is what makes concurrent executions of one
// Prepared safe.
//
// Every database-derived structure the run consults — candidate index,
// statistics, evaluator, node-join cache — is reached exclusively through
// r.ep, which pins exactly one engine snapshot for the run's lifetime;
// a run can therefore never observe two epochs, regardless of concurrent
// Apply calls.
//
// opt starts as a copy of the Prepared's options; the decider overrides
// the thresholds (and the limit) per execution without re-preparing, so
// one Prepared serves enumeration and decision runs concurrently.
type run struct {
	p     *Prepared
	ep    *prepEpoch
	opt   Options
	order []*hypertree.Node
	ctx   context.Context
	stats *Stats

	// rTables[nodeID] is r[i] of Figure 4 for the current partial body.
	rTables map[int]*relation.Table

	// restrict, when non-nil, overrides the candidate atoms of the scheme
	// restrictID: each sharded worker (parallel.go) searches the chunk of
	// the partitioned candidate list it claimed through this hook.
	restrict   []relation.Atom
	restrictID int

	// explain, when non-nil, accumulates per-node estimate-vs-actual
	// observations as node tables are computed (explain.go).
	explain *Explain

	// tr is the run's tracer (obs.go); nil — the default — disables span
	// recording at a nil check per site. span is the parent for spans the
	// search opens (the execution's root span, or a parallel chunk span);
	// rootSpan is the one beginRoot opened, closed by endRoot.
	tr       *obs.Tracer
	span     int
	rootSpan int

	// em points at the engine's execution histograms when enabled; nil
	// skips recording entirely.
	em *Metrics

	// onBody receives each complete body instantiation. Returning a
	// sentinel (errLimit, errStop, errFound) unwinds the search cleanly.
	onBody func(*body) error

	// emit receives each discovered answer, in discovery order; set by the
	// enumeration consumers (FindRules, Stream), unused by DecideFirst.
	emit func(core.Answer) error

	// sc is the run's operator scratch: the search's semijoins and
	// projections draw their buffers and output storage from it and hand
	// run-owned intermediates back through Release, so steady-state
	// executions approach zero allocations. Scratch-owned tables must never
	// escape the run (consumers of body clone what they keep).
	sc *relation.Scratch

	// keyIdx is the run's key-count index. Exact runs count heads through
	// it on an Evaluator.PairCounts memo miss: it indexes the current body
	// join, built lazily and reset on every new body, since body joins are
	// recycled scratch tables and pointer identity cannot key it. Sampled
	// runs probe each fraction's sampled rows through it (KeyCounts.Probe)
	// and reset it after the fraction. Its key storage is drawn from sc.
	keyIdx relation.KeyCounts

	// Reused staging buffers, retained across pooled executions: key and
	// atoms serve nodeJoin (the cache key is built once into key, so cache
	// hits allocate nothing); sTables, sOwned and bodyBuf serve yieldBody's
	// second reducer half; the bj* slices serve bodyJoin's input collection.
	key      []byte
	atoms    []relation.Atom
	sTables  map[int]*relation.Table
	sOwned   []*relation.Table
	bodyBuf  body
	bjTables []*relation.Table
	bjOwn    []bool
	bjAtoms  []relation.Atom

	// sigma is the body search's σ, extended and shrunk in place by
	// instantiateNode. Assign and Unassign pair up on every path, so it is
	// empty between searches and its backing array carries over.
	sigma core.Instantiation
}

// release clears everything table- or query-referencing from the run and
// returns it to the pool. The Stats escape to callers and are never pooled;
// the scratch (with its recycled arenas) and the staging buffers are
// retained, which is what makes repeated executions allocation-free.
func (r *run) release() {
	r.keyIdx.Reset(r.sc)
	if r.sigma.Len() != 0 {
		// Only a panic unwinds past an Unassign: drop the stale bindings.
		r.sigma = core.Instantiation{}
	}
	clear(r.rTables)
	clear(r.sTables)
	for i := range r.sOwned {
		r.sOwned[i] = nil
	}
	r.sOwned = r.sOwned[:0]
	for i := range r.bjTables {
		r.bjTables[i] = nil
	}
	r.bjTables = r.bjTables[:0]
	r.bjOwn = r.bjOwn[:0]
	r.atoms = r.atoms[:0]
	r.bjAtoms = r.bjAtoms[:0]
	r.bodyBuf = body{}
	r.p, r.ep, r.ctx, r.order, r.stats = nil, nil, nil, nil, nil
	r.restrict, r.explain, r.onBody, r.emit = nil, nil, nil, nil
	r.tr, r.em = nil, nil
	r.span, r.rootSpan = -1, -1
	runPool.Put(r)
}

// search runs the body search over the whole candidate space, enumerating
// heads for every body (the Figure 4 findRules composition).
func (r *run) search() error {
	r.onBody = r.findHeads
	return r.forEachBody()
}

// forEachBody drives the iterator core: it walks the node order depth
// first and calls r.onBody once per complete body instantiation.
func (r *run) forEachBody() error {
	return r.findBodies(0, &r.sigma)
}

// anyThresholdChecked reports whether empty-join pruning is sound: with at
// least one strict threshold enabled, an empty body join (all indices 0)
// can never pass.
func (r *run) anyThresholdChecked() bool {
	t := r.opt.Thresholds
	return t.CheckSup || t.CheckCnf || t.CheckCvr
}

// findBodies is the recursive body search of Figure 4 (first half). i
// indexes the run's bottom-up node order.
func (r *run) findBodies(i int, sigma *core.Instantiation) error {
	if err := r.ctx.Err(); err != nil {
		return err
	}
	if i == len(r.order) {
		return r.yieldBody(sigma)
	}
	node := r.order[i]
	return r.instantiateNode(node, r.p.nodeSchemes[node.ID], 0, sigma, func() error {
		return r.findBodies(i+1, sigma)
	})
}

// instantiateNode extends sigma over the schemes of one node, then computes
// the node table and recurses via cont.
func (r *run) instantiateNode(node *hypertree.Node, schemeIDs []int, j int, sigma *core.Instantiation, cont func() error) error {
	if j == len(schemeIDs) {
		return r.evalNode(node, schemeIDs, sigma, cont)
	}
	bs := r.p.schemes[schemeIDs[j]]
	l := bs.scheme
	if !l.PredVar {
		// Ordinary atom: nothing to assign.
		return r.instantiateNode(node, schemeIDs, j+1, sigma, cont)
	}
	if _, done := sigma.AtomFor(l); done {
		// Assigned at an earlier node (λ sets may overlap).
		return r.instantiateNode(node, schemeIDs, j+1, sigma, cont)
	}
	for _, a := range r.candidatesFor(schemeIDs[j]) {
		if err := r.ctx.Err(); err != nil {
			return err
		}
		if rel, ok := sigma.RelationOf(l.Pred); ok && rel != a.Pred {
			continue
		}
		r.stats.BodyCandidatesTried++
		if err := sigma.Assign(l, a); err != nil {
			return err
		}
		err := r.instantiateNode(node, schemeIDs, j+1, sigma, cont)
		sigma.Unassign(l)
		if err != nil {
			return err
		}
	}
	return nil
}

// candidatesFor resolves the candidate atoms the search enumerates for one
// scheme: a parallel-worker restriction wins outright; otherwise the
// epoch's selectivity-ordered list (estimated-smallest candidate first,
// from the engine statistics).
func (r *run) candidatesFor(schemeID int) []relation.Atom {
	if r.restrict != nil && schemeID == r.restrictID {
		return r.restrict
	}
	return r.p.orderedCandidates(r.ep)[schemeID]
}

// evalNode computes r[i] := π_χ(J(σ(λ))) semijoined with the children's
// tables (the bottom-up first half), prunes empty branches, and continues.
func (r *run) evalNode(node *hypertree.Node, schemeIDs []int, sigma *core.Instantiation, cont func() error) error {
	tab, err := r.nodeJoin(node, schemeIDs, sigma)
	if err != nil {
		return err
	}
	if r.explain != nil {
		r.explain.observe(node.ID, tab.Len())
	}
	// The cached node join is shared across executions; every semijoin below
	// produces a run-owned intermediate, recycled once the subtree returns.
	owned := false
	for _, c := range node.Children {
		nt := tab.SemijoinS(r.rTables[c.ID], r.sc)
		if owned {
			r.sc.Release(tab)
		}
		tab, owned = nt, true
	}
	if tab.Empty() && r.anyThresholdChecked() {
		if owned {
			r.sc.Release(tab)
		}
		r.stats.BodiesPrunedEmpty++
		return nil
	}
	prev, had := r.rTables[node.ID]
	r.rTables[node.ID] = tab
	err = cont()
	if had {
		r.rTables[node.ID] = prev
	} else {
		delete(r.rTables, node.ID)
	}
	if owned {
		r.sc.Release(tab)
	}
	return err
}

// nodeJoin computes π_χ(J(σ(λ(p)))) for the node's current atom
// assignment, served from the Prepared's cross-execution join cache. On a
// miss, the join executes through the Engine evaluator: per-atom tables
// from the shared materialization cache, joined in the order
// Evaluator.JoinTables picks.
func (r *run) nodeJoin(node *hypertree.Node, schemeIDs []int, sigma *core.Instantiation) (*relation.Table, error) {
	// The cache key is a binary encoding of (node, atom assignment) built
	// into the run's reused buffer; the map lookup converts it with
	// string(key), which Go compiles without an allocation, so cache hits —
	// the steady state — cost no allocation at all. Only a miss materializes
	// the key string (inside storeJoin's map insert).
	key := append(r.key[:0], 'n')
	key = appendKeyUint(key, uint32(node.ID))
	atoms := r.atoms[:0]
	for _, id := range schemeIDs {
		a, err := r.instAtom(r.p.schemes[id].scheme, sigma)
		if err != nil {
			r.key, r.atoms = key, atoms
			return nil, err
		}
		atoms = append(atoms, a)
		key = appendAtomKey(key, a)
	}
	r.key, r.atoms = key, atoms
	if t, ok := r.ep.cachedJoin(key); ok {
		if r.tr != nil {
			r.tr.Point(r.span, "node-join",
				obs.AInt("node", node.ID),
				obs.A("cache", "hit"),
				obs.AFloat("est_rows", r.p.nodeEstimates(r.ep)[node.ID]),
				obs.AInt("rows", t.Len()))
		}
		return t, nil
	}
	span := -1
	var joinStart time.Time
	if r.tr != nil || r.em != nil {
		// Timed only when observed: the disabled path stays two nil checks.
		if r.tr != nil {
			span = r.tr.Begin(r.span, "node-join")
		}
		joinStart = time.Now()
	}
	j, err := r.ep.snap.ev.Join(atoms)
	if err != nil {
		r.tr.End(span, obs.A("error", err.Error()))
		return nil, err
	}
	t := j
	if !slices.Equal(j.Vars(), node.Chi) {
		// A single-atom node whose columns already are χ in order keeps
		// the cached atom table itself instead of caching a copy of it.
		t = j.Project(node.Chi)
	}
	t = r.ep.storeJoin(key, atoms, t)
	if r.tr != nil || r.em != nil {
		d := time.Since(joinStart)
		est := r.p.nodeEstimates(r.ep)[node.ID]
		if r.em != nil {
			r.em.NodeJoin.RecordDuration(d)
			r.em.EstActualRatio.Record(ratioPerMille(est, t.Len()))
		}
		r.tr.End(span,
			obs.AInt("node", node.ID),
			obs.A("cache", "miss"),
			obs.AFloat("est_rows", est),
			obs.AInt("rows", t.Len()))
	}
	return t, nil
}

// appendAtomKey appends an injective binary encoding of a: length-prefixed
// predicate, term count, then tagged self-delimiting terms. Together with
// the node-ID prefix (which fixes the atom count) the whole key is uniquely
// decodable, so distinct assignments never collide.
func appendAtomKey(key []byte, a relation.Atom) []byte {
	key = appendKeyUint(key, uint32(len(a.Pred)))
	key = append(key, a.Pred...)
	key = appendKeyUint(key, uint32(len(a.Terms)))
	for _, t := range a.Terms {
		switch {
		case t.Var != "":
			key = append(key, 'v')
			key = appendKeyUint(key, uint32(len(t.Var)))
			key = append(key, t.Var...)
		case t.ConstName != "":
			key = append(key, 'd')
			key = appendKeyUint(key, uint32(len(t.ConstName)))
			key = append(key, t.ConstName...)
		default:
			key = append(key, 'c')
			key = appendKeyUint(key, uint32(t.Const))
		}
	}
	return key
}

func appendKeyUint(key []byte, v uint32) []byte {
	return append(key, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// instAtom maps a body scheme through sigma (identity on ordinary atoms).
func (r *run) instAtom(l core.LiteralScheme, sigma *core.Instantiation) (relation.Atom, error) {
	if !l.PredVar {
		return l.Atom(), nil
	}
	a, ok := sigma.AtomFor(l)
	if !ok {
		return relation.Atom{}, fmt.Errorf("engine: pattern %s unassigned at evaluation", l)
	}
	return a, nil
}

// yieldBody runs once per complete body instantiation: it executes the
// second (top-down) half of the full reducer and hands the body to the
// run's consumer.
func (r *run) yieldBody(sigma *core.Instantiation) error {
	r.stats.BodiesReachedRoot++

	// Second half: s[j] := r[j] ⋉ s[parent(j)], top-down. The map, the
	// owned-intermediate list and the body value are reused across yields
	// (the consumer contract already requires cloning anything kept).
	s := r.sTables
	if s == nil {
		s = make(map[int]*relation.Table, len(r.order))
		r.sTables = s
	}
	owned := r.sOwned[:0]
	for i := len(r.order) - 1; i >= 0; i-- {
		n := r.order[i]
		t := r.rTables[n.ID]
		if n.Parent != nil {
			t = t.SemijoinS(s[n.Parent.ID], r.sc)
			owned = append(owned, t)
		}
		s[n.ID] = t
	}
	r.bodyBuf.sigma, r.bodyBuf.s = sigma, s
	err := r.onBody(&r.bodyBuf)
	for i, t := range owned {
		r.sc.Release(t)
		owned[i] = nil
	}
	r.sOwned = owned[:0]
	return err
}
