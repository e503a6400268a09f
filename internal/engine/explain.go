package engine

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"github.com/mqgo/metaquery/internal/core"
)

// ExplainNode is the per-decomposition-node record of an Explain report:
// the node's place in the chosen visit order, the planner's cost estimate
// for its λ-join output, and the actual node-table row counts observed
// while executing — the estimate-vs-actual surface for debugging the
// statistics subsystem.
type ExplainNode struct {
	// NodeID identifies the decomposition node.
	NodeID int
	// Chi is the node's output column set χ.
	Chi []string
	// Schemes renders the node's λ literal schemes.
	Schemes []string
	// EstRows is the planner's estimated node-join output size under each
	// scheme's cheapest candidate (the quantity the visit order ranks by).
	EstRows float64
	// Visits counts how many node tables were computed for this node (one
	// per candidate assignment reaching it).
	Visits int
	// MinRows/MaxRows/TotalRows summarize the actual row counts of those
	// node tables.
	MinRows, MaxRows, TotalRows int
}

// Explain is the plan report of one execution: the node visit order with
// per-node estimates and observed actuals, plus the execution's search
// counters. Collect one with Prepared.ExplainRun.
type Explain struct {
	// Nodes follows the visit order of the explained run.
	Nodes []ExplainNode
	// Stats are the explained run's search counters.
	Stats *Stats

	mu  sync.Mutex
	pos map[int]int // node ID -> index in Nodes
}

// observe records one computed node table's actual row count.
func (e *Explain) observe(nodeID, rows int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := &e.Nodes[e.pos[nodeID]]
	if n.Visits == 0 || rows < n.MinRows {
		n.MinRows = rows
	}
	if rows > n.MaxRows {
		n.MaxRows = rows
	}
	n.Visits++
	n.TotalRows += rows
}

// String renders the report as an aligned text table.
func (e *Explain) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan: %d node(s)\n", len(e.Nodes))
	fmt.Fprintf(&b, "%-5s %-24s %-28s %12s %8s %22s\n",
		"node", "chi", "lambda", "est_rows", "visits", "actual min/avg/max")
	for _, n := range e.Nodes {
		actual := "-"
		if n.Visits > 0 {
			actual = fmt.Sprintf("%d/%.1f/%d", n.MinRows, float64(n.TotalRows)/float64(n.Visits), n.MaxRows)
		}
		fmt.Fprintf(&b, "%-5d %-24s %-28s %12.1f %8d %22s\n",
			n.NodeID, strings.Join(n.Chi, ","), strings.Join(n.Schemes, " "),
			n.EstRows, n.Visits, actual)
	}
	return b.String()
}

// ExplainRun executes the prepared metaquery once while recording the
// estimate-vs-actual plan report, returning the report together with the
// full sorted answer set. The visit order, estimates and candidate
// ordering are exactly what FindRules uses — with Options.Workers > 1 the
// run is sharded the same way, and every worker records into the one
// report — so the report describes the production plan, not a simulation.
//
// On a context error the report and the answers found so far are still
// returned alongside the error — a timed-out explain run is precisely
// when the estimate-vs-actual surface is most interesting.
func (p *Prepared) ExplainRun(ctx context.Context) (*Explain, []core.Answer, error) {
	ex := &Explain{}
	answers, st, err := p.collect(ctx, ex)
	ex.Stats = st
	return ex, answers, err
}

// seed lays out the report skeleton for the enumeration visit order, with
// the per-node estimates of the epoch ep the explained run executes on.
func (e *Explain) seed(p *Prepared, ep *prepEpoch) {
	est := p.nodeEstimates(ep)
	e.pos = make(map[int]int, len(p.order))
	for i, n := range p.order {
		schemes := make([]string, 0, len(p.nodeSchemes[n.ID]))
		for _, id := range p.nodeSchemes[n.ID] {
			schemes = append(schemes, p.schemes[id].scheme.String())
		}
		e.Nodes = append(e.Nodes, ExplainNode{
			NodeID:  n.ID,
			Chi:     append([]string(nil), n.Chi...),
			Schemes: schemes,
			EstRows: est[n.ID],
		})
		e.pos[n.ID] = i
	}
}
