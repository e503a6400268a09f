package hypertree

import (
	"math/rand"
	"strings"
	"testing"
)

func schemas(vss ...[]string) []AtomSchema {
	out := make([]AtomSchema, len(vss))
	for i, vs := range vss {
		out[i] = AtomSchema{ID: i, Vars: vs}
	}
	return out
}

func TestWidth1Chain(t *testing.T) {
	atoms := schemas([]string{"A", "B"}, []string{"B", "C"}, []string{"C", "D"})
	d := Decompose(atoms)
	if d.Width != 1 {
		t.Fatalf("chain width = %d, want 1", d.Width)
	}
	if err := Validate(atoms, d); err != nil {
		t.Fatal(err)
	}
}

func TestTriangleWidth2(t *testing.T) {
	atoms := schemas([]string{"X", "Y"}, []string{"Y", "Z"}, []string{"Z", "X"})
	d := Decompose(atoms)
	if d.Width != 2 {
		t.Fatalf("triangle width = %d, want 2", d.Width)
	}
	if err := Validate(atoms, d); err != nil {
		t.Fatal(err)
	}
}

// Examples 4.8 and 4.10: Qex = {P(A,B), Q(B,C), R(C,D), S(B,D)} is not
// semi-acyclic and has hypertree width exactly 2.
func TestExample48QexWidth2(t *testing.T) {
	atoms := schemas(
		[]string{"A", "B"},
		[]string{"B", "C"},
		[]string{"C", "D"},
		[]string{"B", "D"},
	)
	d := Decompose(atoms)
	if d.Width != 2 {
		t.Fatalf("Qex width = %d, want 2 (Example 4.10)", d.Width)
	}
	if err := Validate(atoms, d); err != nil {
		t.Fatal(err)
	}
}

// The specific decomposition of Example 4.8 must validate: p1 chi={A,B}
// lambda={P}, p2 chi={B,C} lambda={Q}, p3 chi={B,C,D} lambda={R,S}.
func TestExample48SpecificDecomposition(t *testing.T) {
	atoms := schemas(
		[]string{"A", "B"}, // 0 = P(A,B)
		[]string{"B", "C"}, // 1 = Q(B,C)
		[]string{"C", "D"}, // 2 = R(C,D)
		[]string{"B", "D"}, // 3 = S(B,D)
	)
	p3 := &Node{Chi: []string{"B", "C", "D"}, Lambda: []int{2, 3}}
	p2 := &Node{Chi: []string{"B", "C"}, Lambda: []int{1}, Children: []*Node{p3}}
	p1 := &Node{Chi: []string{"A", "B"}, Lambda: []int{0}, Children: []*Node{p2}}
	d := finish(p1, atoms)
	if err := Validate(atoms, d); err != nil {
		t.Fatalf("paper decomposition invalid: %v", err)
	}
	if d.Width != 2 {
		t.Errorf("width = %d", d.Width)
	}
}

func TestSingleAtom(t *testing.T) {
	atoms := schemas([]string{"X", "Y", "Z"})
	d := Decompose(atoms)
	if d.Width != 1 {
		t.Fatalf("single atom width = %d", d.Width)
	}
	if err := Validate(atoms, d); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyAtoms(t *testing.T) {
	d := Decompose(nil)
	if d.Root == nil {
		t.Fatal("nil root")
	}
	if err := Validate(nil, d); err != nil {
		t.Fatal(err)
	}
}

func TestAtomWithNoVars(t *testing.T) {
	atoms := schemas([]string{"X", "Y"}, nil) // second atom is variable-free
	d := Decompose(atoms)
	if err := Validate(atoms, d); err != nil {
		t.Fatal(err)
	}
}

func TestDisconnectedComponents(t *testing.T) {
	atoms := schemas([]string{"A", "B"}, []string{"C", "D"})
	d := Decompose(atoms)
	if d.Width != 1 {
		t.Fatalf("width = %d", d.Width)
	}
	if err := Validate(atoms, d); err != nil {
		t.Fatal(err)
	}
}

func TestRepeatedVarsInAtom(t *testing.T) {
	atoms := schemas([]string{"X", "X", "Y"}, []string{"Y", "Z"})
	d := Decompose(atoms)
	if err := Validate(atoms, d); err != nil {
		t.Fatal(err)
	}
	if d.Width != 1 {
		t.Errorf("width = %d", d.Width)
	}
}

// A 4-cycle needs width 2.
func TestFourCycleWidth2(t *testing.T) {
	atoms := schemas(
		[]string{"A", "B"}, []string{"B", "C"},
		[]string{"C", "D"}, []string{"D", "A"},
	)
	d := Decompose(atoms)
	if d.Width != 2 {
		t.Fatalf("4-cycle width = %d, want 2", d.Width)
	}
	if err := Validate(atoms, d); err != nil {
		t.Fatal(err)
	}
}

// Property: on random atom sets, Decompose always returns a valid complete
// decomposition, and width 1 iff the variable hypergraph is semi-acyclic
// (checked indirectly: width-1 decompositions are only produced via the
// GYO fast path).
func TestQuickDecomposeAlwaysValid(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nAtoms := 2 + rng.Intn(5)
		nVars := 3 + rng.Intn(4)
		varNames := []string{"A", "B", "C", "D", "E", "F", "G"}[:nVars]
		var atoms []AtomSchema
		for i := 0; i < nAtoms; i++ {
			arity := 1 + rng.Intn(3)
			vs := make([]string, arity)
			for j := range vs {
				vs[j] = varNames[rng.Intn(nVars)]
			}
			atoms = append(atoms, AtomSchema{ID: i, Vars: vs})
		}
		d := Decompose(atoms)
		if err := Validate(atoms, d); err != nil {
			t.Fatalf("seed %d: %v\natoms=%v\n%s", seed, err, atoms, d)
		}
		if d.Width < 1 || d.Width > nAtoms {
			t.Fatalf("seed %d: width %d out of range", seed, d.Width)
		}
	}
}

func TestBottomUpOrder(t *testing.T) {
	atoms := schemas([]string{"A", "B"}, []string{"B", "C"}, []string{"C", "D"})
	d := Decompose(atoms)
	order := d.BottomUpOrder()
	if len(order) != len(d.Nodes()) {
		t.Fatalf("order has %d nodes, want %d", len(order), len(d.Nodes()))
	}
	seen := map[*Node]bool{}
	for _, n := range order {
		for _, c := range n.Children {
			if !seen[c] {
				t.Fatal("child visited after parent")
			}
		}
		seen[n] = true
	}
	if order[len(order)-1] != d.Root {
		t.Error("root not last")
	}
}

func TestCoverNode(t *testing.T) {
	atoms := schemas([]string{"A", "B"}, []string{"B", "C"})
	d := Decompose(atoms)
	for _, a := range atoms {
		n := d.CoverNode[a.ID]
		if n == nil {
			t.Fatalf("atom %d has no cover node", a.ID)
		}
		if !containsAll(n.Chi, a.Vars) || !containsInt(n.Lambda, a.ID) {
			t.Errorf("cover node for atom %d does not cover it", a.ID)
		}
	}
}

func TestWidthAndString(t *testing.T) {
	atoms := schemas([]string{"A", "B"}, []string{"B", "C"})
	if w := Width(atoms); w != 1 {
		t.Fatalf("Width = %d, want 1", w)
	}
	d := Decompose(atoms)
	s := d.String()
	if !strings.Contains(s, "p0") || !strings.Contains(s, "chi=") {
		t.Errorf("String() = %q", s)
	}
}

// TestFinishHandBuilt drives finish on a hand-built tree that covers only
// the first atom; finish must attach a leaf for the second and the result
// must validate.
func TestFinishHandBuilt(t *testing.T) {
	atoms := schemas([]string{"X", "Y"}, []string{"X", "Y"})
	root := &Node{Chi: []string{"X", "Y"}, Lambda: []int{0}}
	d := finish(root, atoms)
	if err := Validate(atoms, d); err != nil {
		t.Fatal(err)
	}
	if len(d.Nodes()) < 2 {
		t.Fatalf("finish attached no leaf for the uncovered atom: %v", d.Nodes())
	}
	if d.Width != 1 {
		t.Errorf("hand-built width = %d", d.Width)
	}
}
