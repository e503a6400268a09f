// Package hypertree implements (generalized) hypertree decompositions of
// sets of literal schemes (Definitions 4.6 and 4.7 of the paper), the
// hypertree width, and the completeness property required by the findRules
// algorithm (Figure 4).
//
// Metaquery bodies are combined-complexity objects — a handful of literal
// schemes — so the width-minimizing search is exhaustive. The search
// produces generalized hypertree decompositions (conditions 1–3 of
// Definition 4.7 plus completeness); the paper's condition 4 matters for
// polynomial-time decomposability of large queries, not for the soundness
// of findRules, and on width-1 inputs (the semi-acyclic case) the two
// notions coincide. See DESIGN.md, "Substitutions".
package hypertree

import (
	"fmt"
	"sort"
	"strings"

	"github.com/mqgo/metaquery/internal/hypergraph"
)

// AtomSchema identifies one literal scheme by ID together with its ordinary
// variables varo(L). IDs are caller-defined (typically indices into a
// metaquery body).
type AtomSchema struct {
	ID   int
	Vars []string
}

// Node is a vertex p of a hypertree: the labels χ(p) (ordinary variables)
// and λ(p) (atom schema IDs), plus tree structure.
type Node struct {
	ID       int
	Chi      []string // sorted
	Lambda   []int    // sorted atom IDs
	Children []*Node
	Parent   *Node
}

// Decomposition is a complete hypertree decomposition: a rooted tree whose
// nodes carry χ and λ labels, such that every atom A has a node p with
// varo(A) ⊆ χ(p) and A ∈ λ(p).
type Decomposition struct {
	Root  *Node
	Width int // max |λ(p)| over nodes

	// CoverNode maps each atom ID to a node covering it (varo ⊆ χ, atom ∈ λ).
	CoverNode map[int]*Node

	nodes []*Node
}

// Nodes returns all nodes in preorder.
func (d *Decomposition) Nodes() []*Node { return d.nodes }

// String renders the decomposition for debugging.
func (d *Decomposition) String() string {
	var b strings.Builder
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		fmt.Fprintf(&b, "%sp%d chi={%s} lambda=%v\n", strings.Repeat("  ", depth), n.ID, strings.Join(n.Chi, ","), n.Lambda)
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	if d.Root != nil {
		walk(d.Root, 0)
	}
	return b.String()
}

// Decompose returns a complete decomposition of minimal width for the given
// literal schemes. It never fails: width len(atoms) always suffices (a
// single node holding every atom).
func Decompose(atoms []AtomSchema) *Decomposition {
	if len(atoms) == 0 {
		root := &Node{ID: 0}
		return finish(root, nil)
	}
	// Width 1 fast path: the semi-acyclic case, via a GYO join forest.
	if d, ok := decomposeAcyclic(atoms); ok {
		return d
	}
	for c := 2; c < len(atoms); c++ {
		if root, ok := newSearch(atoms, c).run(); ok {
			return finish(root, atoms)
		}
	}
	// Fallback: one node containing everything (width = len(atoms)).
	all := make([]int, len(atoms))
	varSet := map[string]bool{}
	for i, a := range atoms {
		all[i] = a.ID
		for _, v := range a.Vars {
			varSet[v] = true
		}
	}
	root := &Node{ID: 0, Chi: sortedKeys(varSet), Lambda: sortedInts(all)}
	return finish(root, atoms)
}

// Width returns the minimal width over the decompositions Decompose
// searches: 1 for semi-acyclic atom sets (hw(Q) = 1 iff Q is semi-acyclic).
func Width(atoms []AtomSchema) int {
	return Decompose(atoms).Width
}

// decomposeAcyclic builds a width-1 decomposition from a join forest, if
// the varo-hypergraph of the atoms is acyclic.
func decomposeAcyclic(atoms []AtomSchema) (*Decomposition, bool) {
	h := &hypergraph.Hypergraph{}
	byID := make(map[int]AtomSchema, len(atoms))
	for _, a := range atoms {
		h.Edges = append(h.Edges, hypergraph.Edge{ID: a.ID, Vertices: a.Vars})
		byID[a.ID] = a
	}
	f, ok := hypergraph.JoinForest(h)
	if !ok {
		return nil, false
	}
	var convert func(t *hypergraph.Tree) *Node
	convert = func(t *hypergraph.Tree) *Node {
		a := byID[t.Edge.ID]
		n := &Node{Chi: sortedStrings(dedupe(a.Vars)), Lambda: []int{a.ID}}
		for _, c := range t.Children {
			cn := convert(c)
			cn.Parent = n
			n.Children = append(n.Children, cn)
		}
		return n
	}
	if len(f.Roots) == 0 {
		return nil, false
	}
	root := convert(f.Roots[0])
	// Disconnected components share no variables; hanging them under the
	// first root preserves conditions 1-3.
	for _, r := range f.Roots[1:] {
		cn := convert(r)
		cn.Parent = root
		root.Children = append(root.Children, cn)
	}
	return finish(root, atoms), true
}

// finish numbers nodes, computes width and cover nodes, and attaches
// leaf nodes for any atom not yet covered-with-membership (completeness,
// Definition 4.7 last paragraph).
func finish(root *Node, atoms []AtomSchema) *Decomposition {
	d := &Decomposition{Root: root, CoverNode: make(map[int]*Node)}
	var walk func(n *Node)
	walk = func(n *Node) {
		n.ID = len(d.nodes)
		d.nodes = append(d.nodes, n)
		if len(n.Lambda) > d.Width {
			d.Width = len(n.Lambda)
		}
		for _, c := range n.Children {
			c.Parent = n
			walk(c)
		}
	}
	walk(root)

	for _, a := range atoms {
		n := d.findCover(a)
		if n == nil {
			// No node covers varo(a) with membership: attach a leaf under a
			// node whose χ covers varo(a). Such a node exists by condition 1.
			host := d.findHost(a)
			if host == nil {
				panic(fmt.Sprintf("hypertree: internal error, atom %d not covered", a.ID))
			}
			leaf := &Node{
				ID:     len(d.nodes),
				Chi:    sortedStrings(dedupe(a.Vars)),
				Lambda: []int{a.ID},
				Parent: host,
			}
			host.Children = append(host.Children, leaf)
			d.nodes = append(d.nodes, leaf)
			n = leaf
		}
		d.CoverNode[a.ID] = n
	}
	if d.Width == 0 && len(atoms) > 0 {
		d.Width = 1
	}
	return d
}

func (d *Decomposition) findCover(a AtomSchema) *Node {
	for _, n := range d.nodes {
		if containsAll(n.Chi, a.Vars) && containsInt(n.Lambda, a.ID) {
			return n
		}
	}
	return nil
}

func (d *Decomposition) findHost(a AtomSchema) *Node {
	for _, n := range d.nodes {
		if containsAll(n.Chi, a.Vars) {
			return n
		}
	}
	return nil
}

func containsAll(sorted []string, vars []string) bool {
	for _, v := range vars {
		i := sort.SearchStrings(sorted, v)
		if i >= len(sorted) || sorted[i] != v {
			return false
		}
	}
	return true
}

func containsInt(sorted []int, x int) bool {
	i := sort.SearchInts(sorted, x)
	return i < len(sorted) && sorted[i] == x
}

func dedupe(vs []string) []string {
	seen := make(map[string]bool, len(vs))
	var out []string
	for _, v := range vs {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

func sortedStrings(vs []string) []string {
	out := append([]string(nil), vs...)
	sort.Strings(out)
	return out
}

func sortedInts(vs []int) []int {
	out := append([]int(nil), vs...)
	sort.Ints(out)
	return out
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
