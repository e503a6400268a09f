package core

import (
	"strings"
	"testing"

	"github.com/mqgo/metaquery/internal/relation"
)

// db1 constructs the database of Figure 1: relations UsCa, CaTe and UsPT.
func db1(t testing.TB) *relation.Database {
	t.Helper()
	db := relation.NewDatabase()
	db.MustInsertNamed("UsCa", "John K.", "Omnitel")
	db.MustInsertNamed("UsCa", "John K.", "Tim")
	db.MustInsertNamed("UsCa", "Anastasia A.", "Omnitel")
	db.MustInsertNamed("CaTe", "Tim", "ETACS")
	db.MustInsertNamed("CaTe", "Tim", "GSM 900")
	db.MustInsertNamed("CaTe", "Tim", "GSM 1800")
	db.MustInsertNamed("CaTe", "Omnitel", "GSM 900")
	db.MustInsertNamed("CaTe", "Omnitel", "GSM 1800")
	db.MustInsertNamed("CaTe", "Wind", "GSM 1800")
	db.MustInsertNamed("UsPT", "John K.", "GSM 900")
	db.MustInsertNamed("UsPT", "John K.", "GSM 1800")
	db.MustInsertNamed("UsPT", "Anastasia A.", "GSM 900")
	return db
}

// db2 extends DB1 with the Figure 2 version of UsPT (extra Model column),
// replacing the binary UsPT by the ternary one.
func db2(t testing.TB) *relation.Database {
	t.Helper()
	db := relation.NewDatabase()
	db.MustInsertNamed("UsCa", "John K.", "Omnitel")
	db.MustInsertNamed("UsCa", "John K.", "Tim")
	db.MustInsertNamed("UsCa", "Anastasia A.", "Omnitel")
	db.MustInsertNamed("CaTe", "Tim", "ETACS")
	db.MustInsertNamed("CaTe", "Tim", "GSM 900")
	db.MustInsertNamed("CaTe", "Tim", "GSM 1800")
	db.MustInsertNamed("CaTe", "Omnitel", "GSM 900")
	db.MustInsertNamed("CaTe", "Omnitel", "GSM 1800")
	db.MustInsertNamed("CaTe", "Wind", "GSM 1800")
	db.MustInsertNamed("UsPT", "John K.", "GSM 900", "Nokia 6150")
	db.MustInsertNamed("UsPT", "John K.", "GSM 1800", "Nokia 6150")
	db.MustInsertNamed("UsPT", "Anastasia A.", "GSM 900", "Bosch 607")
	return db
}

// mq4 is the running metaquery (4) of the paper.
func mq4() *Metaquery { return MustParse("R(X,Z) <- P(X,Y), Q(Y,Z)") }

func TestCandidatesType0(t *testing.T) {
	db := db1(t)
	cands := Candidates(db, Pattern("P", "X", "Y"), Type0, 0)
	if len(cands) != 3 {
		t.Fatalf("type-0 candidates = %v", cands)
	}
	// Argument lists untouched.
	for _, a := range cands {
		if a.String() != a.Pred+"(X,Y)" {
			t.Errorf("type-0 candidate rearranged arguments: %s", a)
		}
	}
}

func TestCandidatesType1(t *testing.T) {
	db := db1(t)
	cands := Candidates(db, Pattern("P", "X", "Y"), Type1, 0)
	// 3 relations x 2 permutations.
	if len(cands) != 6 {
		t.Fatalf("type-1 candidates = %d, want 6", len(cands))
	}
	// Both orders of UsCa must appear (the paper's §2.1 example).
	var hasXY, hasYX bool
	for _, a := range cands {
		switch a.String() {
		case "UsCa(X,Y)":
			hasXY = true
		case "UsCa(Y,X)":
			hasYX = true
		}
	}
	if !hasXY || !hasYX {
		t.Errorf("type-1 permutations missing: %v", cands)
	}
}

func TestCandidatesType1RepeatedVarDedup(t *testing.T) {
	db := db1(t)
	cands := Candidates(db, Pattern("P", "X", "X"), Type1, 0)
	// Permutations of (X,X) coincide: 3 relations x 1 distinct ordering.
	if len(cands) != 3 {
		t.Fatalf("type-1 repeated-var candidates = %v", cands)
	}
}

func TestCandidatesType2PadsFreshVars(t *testing.T) {
	db := db2(t)
	cands := Candidates(db, Pattern("R", "X", "Z"), Type2, 7)
	// Binary relations (UsCa, CaTe): 2 injections each = 4 atoms.
	// Ternary UsPT: 3*2 = 6 injections.
	if len(cands) != 10 {
		t.Fatalf("type-2 candidates = %d, want 10: %v", len(cands), cands)
	}
	// The paper's example: UsPT(X,Z,_fresh) must be among them.
	found := false
	for _, a := range cands {
		if a.Pred == "UsPT" && a.Terms[0].Var == "X" && a.Terms[1].Var == "Z" &&
			strings.HasPrefix(a.Terms[2].Var, freshPrefix) {
			found = true
		}
	}
	if !found {
		t.Errorf("UsPT(X,Z,fresh) not found in %v", cands)
	}
	// Fresh variables are keyed by the pattern index passed in.
	for _, a := range cands {
		for _, term := range a.Terms {
			if strings.HasPrefix(term.Var, freshPrefix) && !strings.HasPrefix(term.Var, "_f7_") {
				t.Errorf("fresh variable %q not keyed by pattern index", term.Var)
			}
		}
	}
}

func TestCandidatesType2SkipsSmallerRelations(t *testing.T) {
	db := relation.NewDatabase()
	db.MustInsertNamed("u", "a") // arity 1
	db.MustInsertNamed("b", "a", "b", "c")
	cands := Candidates(db, Pattern("P", "X", "Y"), Type2, 0)
	for _, a := range cands {
		if a.Pred == "u" {
			t.Errorf("type-2 matched pattern of arity 2 to relation of arity 1")
		}
	}
	if len(cands) != 6 {
		t.Errorf("type-2 candidates = %d, want 6 (3P2 into arity-3)", len(cands))
	}
}

func TestCandidatesNonPattern(t *testing.T) {
	db := db1(t)
	cands := Candidates(db, SchemeAtom("UsCa", "X", "Y"), Type0, 0)
	if len(cands) != 1 || cands[0].String() != "UsCa(X,Y)" {
		t.Errorf("non-pattern candidates = %v", cands)
	}
}

func TestValidateForType(t *testing.T) {
	db := db1(t)
	impure := MustParse("P(X) <- P(X,Y)")
	if err := ValidateForType(db, impure, Type0); err == nil {
		t.Error("type-0 accepted impure metaquery")
	}
	if err := ValidateForType(db, impure, Type1); err == nil {
		t.Error("type-1 accepted impure metaquery")
	}
	if err := ValidateForType(db, impure, Type2); err != nil {
		t.Errorf("type-2 rejected impure metaquery: %v", err)
	}
	missingRel := MustParse("R(X) <- nosuch(X)")
	if err := ValidateForType(db, missingRel, Type2); err == nil {
		t.Error("unknown relation atom accepted")
	}
	badArity := MustParse(`R(X) <- "UsCa"(X)`)
	if err := ValidateForType(db, badArity, Type2); err == nil {
		t.Error("arity-mismatched relation atom accepted")
	}
}

func TestCountInstantiationsType0(t *testing.T) {
	db := db1(t)
	n, err := CountInstantiations(db, mq4(), Type0)
	if err != nil {
		t.Fatal(err)
	}
	// Three distinct predicate variables, three binary relations: 3^3.
	if n != 27 {
		t.Errorf("type-0 instantiations = %d, want 27", n)
	}
}

func TestCountInstantiationsType1(t *testing.T) {
	db := db1(t)
	n, err := CountInstantiations(db, mq4(), Type1)
	if err != nil {
		t.Fatal(err)
	}
	// Each pattern: 3 relations x 2 permutations = 6; 6^3 = 216.
	if n != 216 {
		t.Errorf("type-1 instantiations = %d, want 216", n)
	}
}

func TestInstantiationFunctionality(t *testing.T) {
	// Same predicate variable twice: both patterns must map to the same
	// relation (but may permute differently under type-1).
	db := relation.NewDatabase()
	db.MustInsertNamed("a", "1", "2")
	db.MustInsertNamed("b", "1", "2")
	mq := MustParse("R(X,Y) <- P(X,Y), P(Y,X)")
	n0, err := CountInstantiations(db, mq, Type0)
	if err != nil {
		t.Fatal(err)
	}
	// R: 2 choices; P: 2 choices shared by both patterns. 2*2 = 4.
	if n0 != 4 {
		t.Errorf("type-0 = %d, want 4", n0)
	}
	seenRelMismatch := false
	err = ForEachInstantiation(db, mq, Type0, func(s *Instantiation) (bool, error) {
		a1, _ := s.AtomFor(Pattern("P", "X", "Y"))
		a2, _ := s.AtomFor(Pattern("P", "Y", "X"))
		if a1.Pred != a2.Pred {
			seenRelMismatch = true
		}
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seenRelMismatch {
		t.Error("functionality of σ' violated")
	}
}

func TestType1AllowsDifferentPermutationsPerPattern(t *testing.T) {
	// Crucial for Theorem 3.29: one predicate variable, two patterns, the
	// argument arrangements may differ.
	db := relation.NewDatabase()
	db.MustInsertNamed("p", "1", "2")
	mq := MustParse("R(X,Y) <- P(X,Y), P(Y,X)")
	var foundMixed bool
	err := ForEachInstantiation(db, mq, Type1, func(s *Instantiation) (bool, error) {
		a1, _ := s.AtomFor(Pattern("P", "X", "Y"))
		a2, _ := s.AtomFor(Pattern("P", "Y", "X"))
		if a1.String() == "p(X,Y)" && a2.String() == "p(X,Y)" {
			foundMixed = true
		}
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !foundMixed {
		t.Error("type-1 did not allow per-pattern permutations under one predicate variable")
	}
}

func TestAssignConflicts(t *testing.T) {
	s := NewInstantiation()
	p := Pattern("P", "X", "Y")
	if err := s.Assign(p, relation.NewAtom("a", "X", "Y")); err != nil {
		t.Fatal(err)
	}
	if err := s.Assign(p, relation.NewAtom("a", "X", "Y")); err != nil {
		t.Errorf("idempotent re-assign failed: %v", err)
	}
	if err := s.Assign(p, relation.NewAtom("b", "X", "Y")); err == nil {
		t.Error("conflicting pattern assignment accepted")
	}
	q := Pattern("P", "Y", "X")
	if err := s.Assign(q, relation.NewAtom("b", "Y", "X")); err == nil {
		t.Error("non-functional predicate-variable assignment accepted")
	}
	if err := s.Assign(SchemeAtom("r", "X"), relation.NewAtom("r", "X")); err == nil {
		t.Error("assigning to non-pattern accepted")
	}
}

func TestApplyProducesRule(t *testing.T) {
	db := db1(t)
	mq := mq4()
	var got []string
	err := ForEachInstantiation(db, mq, Type0, func(s *Instantiation) (bool, error) {
		r, err := s.Apply(mq)
		if err != nil {
			return false, err
		}
		if r.String() == "UsPT(X,Z) <- UsCa(X,Y), CaTe(Y,Z)" {
			got = append(got, r.String())
		}
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Errorf("paper's rule found %d times, want 1", len(got))
	}
}

func TestApplyUnassignedPattern(t *testing.T) {
	mq := mq4()
	s := NewInstantiation()
	if _, err := s.Apply(mq); err == nil {
		t.Error("Apply with unassigned patterns succeeded")
	}
}

func TestAgreesAndCompose(t *testing.T) {
	p := Pattern("P", "X", "Y")
	q := Pattern("Q", "Y", "Z")
	s1 := NewInstantiation()
	s1.Assign(p, relation.NewAtom("a", "X", "Y"))
	s2 := NewInstantiation()
	s2.Assign(q, relation.NewAtom("b", "Y", "Z"))
	if !s1.Agrees(s2) {
		t.Error("disjoint instantiations do not agree")
	}
	c, err := s1.Compose(s2)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Errorf("composed len = %d", c.Len())
	}
	s3 := NewInstantiation()
	s3.Assign(p, relation.NewAtom("b", "X", "Y"))
	if s1.Agrees(s3) {
		t.Error("conflicting instantiations agree")
	}
	if _, err := s1.Compose(s3); err == nil {
		t.Error("Compose of conflicting instantiations succeeded")
	}
	// Different patterns under one predicate variable must agree on σ'.
	s4 := NewInstantiation()
	s4.Assign(Pattern("P", "Y", "X"), relation.NewAtom("b", "Y", "X"))
	if s1.Agrees(s4) {
		t.Error("instantiations mapping P to different relations agree")
	}
	s4.Unassign(Pattern("P", "Y", "X"))
	s4.Assign(Pattern("P", "Y", "X"), relation.NewAtom("a", "Y", "X"))
	if !s1.Agrees(s4) {
		t.Error("instantiations mapping P to the same relation disagree")
	}
}

func TestInstantiationSubsumptionAcrossTypes(t *testing.T) {
	// Type-0 instantiations are type-1 instantiations, which are type-2
	// (remark after Definition 2.4). Compare instantiation key sets.
	db := db1(t)
	mq := mq4()
	collect := func(typ InstType) map[string]bool {
		out := map[string]bool{}
		if err := ForEachInstantiation(db, mq, typ, func(s *Instantiation) (bool, error) {
			out[s.Key()] = true
			return true, nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	t0, t1, t2 := collect(Type0), collect(Type1), collect(Type2)
	for k := range t0 {
		if !t1[k] {
			t.Fatalf("type-0 instantiation missing from type-1: %s", k)
		}
	}
	for k := range t1 {
		if !t2[k] {
			t.Fatalf("type-1 instantiation missing from type-2: %s", k)
		}
	}
}

func TestUnassignRelationOfString(t *testing.T) {
	s := NewInstantiation()
	p := Pattern("P", "X", "Y")
	q := Pattern("P", "Y", "Z")
	if err := s.Assign(p, relation.NewAtom("a", "X", "Y")); err != nil {
		t.Fatal(err)
	}
	if err := s.Assign(q, relation.NewAtom("a", "Y", "Z")); err != nil {
		t.Fatal(err)
	}
	// A predicate variable whose name extends P's does not share it.
	pq := Pattern("PQ", "X")
	if err := s.Assign(pq, relation.NewAtom("b", "X")); err != nil {
		t.Fatal(err)
	}
	if r, ok := s.RelationOf("P"); !ok || r != "a" {
		t.Fatalf("RelationOf = %q, %v", r, ok)
	}
	if str := s.String(); !strings.Contains(str, "a(") {
		t.Errorf("String() = %q", str)
	}
	// Unassigning one of two patterns sharing the predicate variable must
	// keep the relation binding alive.
	s.Unassign(q)
	if r, ok := s.RelationOf("P"); !ok || r != "a" {
		t.Fatal("predicate-variable binding dropped while still in use")
	}
	s.Unassign(p)
	if _, ok := s.RelationOf("P"); ok {
		t.Fatal("predicate-variable binding survived its last pattern")
	}
	s.Unassign(p) // idempotent on an absent assignment
	if r, ok := s.RelationOf("PQ"); !ok || r != "b" {
		t.Fatalf("RelationOf(PQ) = %q, %v after unassigning P's patterns", r, ok)
	}
	s.Unassign(pq)
	if s.Len() != 0 {
		t.Fatalf("Len = %d after full unassign", s.Len())
	}
}

// TestInstantiationLookupsDoNotAllocate pins the slice-backed σ's cheap
// operations: AtomFor and RelationOf scan the bindings, Unassign shifts
// them, and an Assign within the slice's capacity appends in place, none of
// them allocating. Clone takes at most two allocations and leaves room for
// the head binding.
func TestInstantiationLookupsDoNotAllocate(t *testing.T) {
	s := NewInstantiation()
	p, q := Pattern("P", "X", "Y"), Pattern("Q", "Y")
	a, b := relation.NewAtom("a", "X", "Y"), relation.NewAtom("b", "Y")
	if err := s.Assign(p, a); err != nil {
		t.Fatal(err)
	}
	full := s.Clone()
	for name, f := range map[string]func(){
		"AtomFor hit":       func() { s.AtomFor(p) },
		"AtomFor miss":      func() { s.AtomFor(q) },
		"AtomFor P(Y,X)":    func() { s.AtomFor(Pattern("P", "Y", "X")) },
		"RelationOf hit":    func() { s.RelationOf("P") },
		"RelationOf miss":   func() { s.RelationOf("Q") },
		"re-Assign":         func() { _ = s.Assign(p, a) },
		"Unassign (absent)": func() { s.Unassign(q) },
		"Assign+Unassign": func() {
			if err := full.Assign(q, b); err != nil {
				t.Fatal(err)
			}
			full.Unassign(q)
		},
	} {
		if got := testing.AllocsPerRun(100, f); got != 0 {
			t.Errorf("%s allocated %.1f times, want 0", name, got)
		}
	}
	if got := testing.AllocsPerRun(100, func() {
		c := s.Clone()
		if err := c.Assign(q, b); err != nil {
			t.Fatal(err)
		}
	}); got > 2 {
		t.Errorf("Clone plus a head Assign allocated %.1f times, want at most 2", got)
	}
}

// TestInstantiationKeyIdentity pins σ's pattern identity to the rendered
// Key, the identity ls(MQ) deduplicates by: a quoted constant holding ','
// renders like two arguments, so both spellings name one pattern.
func TestInstantiationKeyIdentity(t *testing.T) {
	s := NewInstantiation()
	one, two := Pattern("P", "a,b"), Pattern("P", "a", "b")
	if one.Key() != two.Key() {
		t.Fatalf("keys %q and %q differ", one.Key(), two.Key())
	}
	a := relation.NewAtom("r", "X")
	if err := s.Assign(one, a); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.AtomFor(two); !ok || !got.Equal(a) {
		t.Fatalf("AtomFor(%s) = %v, %v; want %v", two, got, ok, a)
	}
	if got, ok := s.AtomFor(Pattern("P", "a", "c")); ok {
		t.Fatalf("AtomFor(P(a,c)) = %v", got)
	}
}
