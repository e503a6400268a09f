package relation

import (
	"math/rand"
	"testing"
)

// TestAtomEqualMatchesRendering checks the contract of Atom.Equal over
// generated atoms: a.Equal(b) holds exactly when a and b render to the
// same text. The term pool mixes variables, raw constants, named
// constants that need quotes (one spelled like a variable), and a named
// constant whose ignored Const differs; predicates repeat across arities.
func TestAtomEqualMatchesRendering(t *testing.T) {
	pool := []Term{
		V("X"), V("Y"), V("_f0_1"),
		C(0), C(1),
		CN("c"), CN("X"), CN("a b"), CN("Big"),
		{ConstName: "c", Const: 7},
	}
	rng := rand.New(rand.NewSource(1))
	atoms := make([]Atom, 300)
	for i := range atoms {
		terms := make([]Term, rng.Intn(4))
		for j := range terms {
			terms[j] = pool[rng.Intn(len(pool))]
		}
		atoms[i] = Atom{Pred: []string{"p", "q"}[rng.Intn(2)], Terms: terms}
	}
	equal := 0
	for _, a := range atoms {
		for _, b := range atoms {
			want := a.String() == b.String()
			if got := a.Equal(b); got != want {
				t.Fatalf("%s.Equal(%s) = %v, renderings equal = %v", a, b, got, want)
			}
			if want {
				equal++
			}
		}
	}
	if equal == len(atoms) {
		t.Fatal("generator produced no equal pairs beyond the diagonal")
	}
}

func TestAtomEqualQuotedNames(t *testing.T) {
	cases := []struct {
		a, b  Atom
		equal bool
	}{
		// A quoted constant name is not the variable it is spelled like.
		{Atom{"p", []Term{CN("X")}}, Atom{"p", []Term{V("X")}}, false},
		{Atom{"p", []Term{CN("a b")}}, Atom{"p", []Term{CN("a b")}}, true},
		// Const is ignored once ConstName is set.
		{Atom{"p", []Term{{ConstName: "c", Const: 3}}}, Atom{"p", []Term{CN("c")}}, true},
		{Atom{"p", []Term{CN("c")}}, Atom{"p", []Term{C(0)}}, false},
		{Atom{"p", []Term{C(1)}}, Atom{"p", []Term{C(1)}}, true},
		// Same predicate, different arity.
		{NewAtom("p", "X"), NewAtom("p", "X", "X"), false},
		{NewAtom("p"), NewAtom("q"), false},
	}
	for _, c := range cases {
		if got := c.a.Equal(c.b); got != c.equal {
			t.Errorf("%s.Equal(%s) = %v, want %v", c.a, c.b, got, c.equal)
		}
		if got := c.a.String() == c.b.String(); got != c.equal {
			t.Errorf("renderings of %s and %s equal = %v, want %v", c.a, c.b, got, c.equal)
		}
	}
}

func TestAtomAppendTo(t *testing.T) {
	d := newDict()
	v := d.Intern("GSM 900")
	a := Atom{"p", []Term{V("X"), CN("Big"), CN("c"), C(v)}}
	if got, want := a.StringDict(d), `p(X,"Big",c,GSM 900)`; got != want {
		t.Errorf("StringDict = %s, want %s", got, want)
	}
	if got, want := string(a.AppendTo([]byte("k="), nil)), `k=p(X,"Big",c,#0)`; got != want {
		t.Errorf("AppendTo = %s, want %s", got, want)
	}
}
