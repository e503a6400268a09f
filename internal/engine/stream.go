package engine

import (
	"context"
	"iter"

	"github.com/mqgo/metaquery/internal/core"
)

// Stream executes the prepared metaquery and yields answers incrementally,
// in discovery order (not sorted; use FindRules for the canonical sorted
// answer set). Breaking out of the range loop abandons the remaining
// search immediately, so first-witness and top-k consumers do strictly
// less work than a full materializing run.
//
// Cancellation and errors are delivered in-band: when the search fails or
// ctx is cancelled, the final pair yielded is (zero Answer, err). A
// non-positive Options.Limit streams every answer; a positive one ends the
// stream after Limit answers.
//
// With Options.Workers > 1 the candidate space is sharded across that many
// goroutines feeding one merged stream (see parallel.go). The answer
// multiset is exactly the sequential one, but the merge order is
// nondeterministic; consumers needing a stable order sort (as FindRules
// does) or run with one worker. Breaking out of the loop, hitting Limit,
// or cancelling ctx stops every worker before the iteration returns.
func (p *Prepared) Stream(ctx context.Context) iter.Seq2[core.Answer, error] {
	return p.StreamStats(ctx, nil)
}

// StreamStats is Stream additionally recording the search-effort counters
// into st (when non-nil) as the search progresses, so an early-exiting
// consumer can observe how much of the candidate space was actually
// explored. For workers > 1 the counters are the sums over all workers,
// merged as each chunk finishes; Width and Nodes are set before the first
// answer is yielded.
func (p *Prepared) StreamStats(ctx context.Context, st *Stats) iter.Seq2[core.Answer, error] {
	return func(yield func(core.Answer, error) bool) {
		_, err := p.enumerate(ctx, "stream", st, nil, func(a core.Answer) error {
			if !yield(a, nil) {
				return errStop
			}
			return nil
		})
		if err != nil {
			yield(core.Answer{}, err)
		}
	}
}
