package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"github.com/mqgo/metaquery/internal/core"
	"github.com/mqgo/metaquery/internal/hypertree"
	"github.com/mqgo/metaquery/internal/obs"
	"github.com/mqgo/metaquery/internal/relation"
)

// This file implements the engine's one worker pool. With Options.Workers
// > 1, shard splits the first visited node's candidate atoms into chunks of
// the selectivity-ordered list, handed out through a shared atomic cursor,
// and each worker searches the chunks it claims with one independent body
// search (run.forEachBody through the run.restrict hook). Both parallel
// modes run on it and differ only in the consumer each worker installs:
// the enumeration (Stream, FindRules, ExplainRun) feeds one merged result
// channel, and DecideFirst stops every worker at the first witness.
//
// Correctness of the partition: the sharded scheme is a pattern scheme of
// the first node in the visit order, so every complete body assigns it
// exactly one candidate atom, and it is assigned before any other scheme
// can pin its predicate variable. Restricting it to a chunk therefore
// selects exactly the bodies whose assignment lies in that chunk: the
// cursor hands every candidate to exactly one worker, so the workers'
// answer multisets are disjoint by construction and union to the
// sequential answer multiset. Only the merge order differs.
//
// Chunks several times smaller than a fair share let workers that finish
// early steal from the remainder, so a skewed workload cannot leave one
// worker holding the whole expensive tail; a chunk costs its worker one
// restrict rebind on the run it keeps for all its chunks.

// candCursor hands out chunks of a shared candidate list to parallel
// workers through an atomic cursor. Each candidate lands in exactly one
// chunk, chunks are contiguous and in order, and a worker that finishes a
// cheap chunk immediately claims the next.
type candCursor struct {
	cands []relation.Atom
	chunk int
	next  atomic.Int64
}

// newCandCursor sizes chunks at an eighth of a worker's fair share
// (minimum 1): small enough that a skewed tail redistributes, large enough
// that per-chunk setup stays amortized.
func newCandCursor(cands []relation.Atom, workers int) *candCursor {
	chunk := len(cands) / (8 * workers)
	if chunk < 1 {
		chunk = 1
	}
	return &candCursor{cands: cands, chunk: chunk}
}

// take claims the next chunk, or nil when the list is exhausted.
func (c *candCursor) take() []relation.Atom {
	hi := int(c.next.Add(int64(c.chunk)))
	lo := hi - c.chunk
	if lo >= len(c.cands) {
		return nil
	}
	if hi > len(c.cands) {
		hi = len(c.cands)
	}
	return c.cands[lo:hi]
}

// errNoShard reports that a query has no partitionable scheme: the first
// visited node holds no pattern scheme with at least two candidates. The
// caller then runs sequentially.
var errNoShard = errors.New("engine: no partitionable scheme")

// PanicError reports a panic inside a parallel search worker. The worker
// recovers it, so the panic fails its execution with this error instead of
// ending the process: net/http recovers panics on handler goroutines only.
type PanicError struct {
	// Value is the value the worker panicked with.
	Value any
	// Stack is the worker goroutine's stack at the panic.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("engine: parallel search worker panicked: %v", e.Value)
}

// shardHook, when non-nil, is called with every worker's run once its
// consumer is installed. Tests inject faults through it; it is nil
// otherwise.
var shardHook func(*run)

// shard runs one sharded search over the epoch ep and visit order: up to
// opt.Workers goroutines each hold one run for all the chunks they claim,
// with its consumer installed by init. Each chunk is traced as a root span
// under the coordName coordinator. A chunk ending in errFound or errStop
// stops the other workers, and so does a worker error, panics included
// (as a *PanicError). The workers' counters are merged into st, which
// starts out carrying the execution's Width and Nodes.
//
// It returns errNoShard, having done nothing, when the query has no
// partitionable scheme. Otherwise it returns once every worker has exited:
// with ctx's error (nil unless the caller cancelled) when a worker stopped
// the run early, and else with the first worker error.
func (p *Prepared) shard(ctx context.Context, ep *prepEpoch, opt Options, order []*hypertree.Node, coordName string, st *Stats, init func(*run)) error {
	schemeID, cands := p.partitionScheme(ep, order)
	if schemeID < 0 {
		return errNoShard
	}
	workers := min(opt.Workers, len(cands))
	if ctx == nil {
		ctx = context.Background()
	}
	*st = Stats{Width: p.decomp.Width, Nodes: len(p.order)}
	tr := resolveTracer(ctx, opt)
	coord := tr.Begin(-1, coordName)
	defer tr.End(coord, obs.AInt("workers", workers), obs.AInt("candidates", len(cands)))

	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		mu       sync.Mutex
		firstErr error
		stopped  bool
		wg       sync.WaitGroup
	)
	cursor := newCandCursor(cands, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := p.newRunEp(wctx, opt, ep)
			defer func() {
				if v := recover(); v != nil {
					// The run's state is torn mid-search: drop it rather
					// than pool it.
					mu.Lock()
					if firstErr == nil {
						firstErr = &PanicError{Value: v, Stack: debug.Stack()}
					}
					mu.Unlock()
					cancel()
					return
				}
				r.release()
			}()
			r.order, r.restrictID = order, schemeID
			init(r)
			if shardHook != nil {
				shardHook(r)
			}
			for block := cursor.take(); block != nil; block = cursor.take() {
				r.restrict = block
				r.span = coord
				r.beginRoot("chunk")
				err := r.forEachBody()
				r.endRoot(obs.AInt("worker", w), obs.AInt("candidates", len(block)))
				mu.Lock()
				st.merge(r.stats)
				switch {
				case err == errFound || err == errStop:
					stopped = true
				case err != nil && firstErr == nil:
					firstErr = err
				}
				mu.Unlock()
				if err != nil {
					cancel()
					return
				}
				// Counters restart per chunk, so each chunk span reports
				// its own.
				*r.stats = Stats{}
			}
		}()
	}
	wg.Wait()
	if stopped {
		// The other workers' errors are the cancel's echo.
		return ctx.Err()
	}
	return firstErr
}

// streamParallel is the sharded half of enumerate: shard runs behind a
// result channel, and this merge loop hands every answer to emit on the
// caller's goroutine and enforces the global Limit. An emit error, the
// limit and a cancelled ctx all stop every worker, and the loop drains the
// channel until shard has returned, so no goroutine outlives the call. It
// returns errNoShard, having emitted nothing, when the query has no
// partitionable scheme.
func (p *Prepared) streamParallel(ctx context.Context, ep *prepEpoch, st *Stats, ex *Explain, emit func(core.Answer) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	opt := p.opt
	opt.Limit = 0 // the merge loop enforces the global limit
	// A few answers of slack per worker keep the workers searching while
	// the consumer handles an answer.
	results := make(chan core.Answer, 4*opt.Workers)
	send := func(a core.Answer) error {
		select {
		case results <- a:
			return nil
		case <-sctx.Done():
			return sctx.Err()
		}
	}
	var shardErr error
	go func() {
		defer close(results)
		shardErr = p.shard(sctx, ep, opt, p.order, "stream-parallel", st, func(r *run) {
			r.explain, r.onBody, r.emit = ex, r.findHeads, send
		})
	}()

	// The merge loop counts locally and publishes st.Answers once the
	// channel closes: the workers merge into st concurrently until then.
	// An answer the consumer stops on was still delivered, and counts.
	emitted, stopped := 0, false
	var emitErr error
	for a := range results {
		if stopped {
			continue // draining until every worker exits
		}
		emitted++
		emitErr = emit(a)
		if emitErr != nil || (p.opt.Limit > 0 && emitted >= p.opt.Limit) {
			stopped = true
			cancel()
		}
	}
	if shardErr == errNoShard {
		return errNoShard
	}
	st.Answers = emitted
	if stopped {
		return emitErr
	}
	return shardErr
}

// partitionScheme picks the scheme a sharded run partitions: the first
// pattern scheme of the first node in the visit order, with its
// selectivity-ordered candidate atoms. It returns -1 when the first node
// holds no pattern scheme or that scheme has fewer than two candidates.
func (p *Prepared) partitionScheme(ep *prepEpoch, order []*hypertree.Node) (int, []relation.Atom) {
	if len(order) == 0 {
		return -1, nil
	}
	for _, id := range p.nodeSchemes[order[0].ID] {
		if p.schemes[id].scheme.PredVar {
			if c := p.orderedCandidates(ep)[id]; len(c) >= 2 {
				return id, c
			}
			return -1, nil
		}
	}
	return -1, nil
}

// merge adds o's effort counters into st. Width/Nodes/Answers describe the
// whole merged execution and are managed by the caller.
func (st *Stats) merge(o *Stats) {
	st.BodyCandidatesTried += o.BodyCandidatesTried
	st.BodiesPrunedEmpty += o.BodiesPrunedEmpty
	st.BodiesReachedRoot += o.BodiesReachedRoot
	st.BodiesPrunedSupport += o.BodiesPrunedSupport
	st.HeadsTried += o.HeadsTried
	st.HeadsSkipped += o.HeadsSkipped
	st.SamplesDrawn += o.SamplesDrawn
	st.ApproxEscalated += o.ApproxEscalated
}
