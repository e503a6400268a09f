package relation

import (
	"strconv"
	"unicode"
)

// Term is one argument of an atom: either an ordinary variable or a
// constant. Var == "" marks a constant term, which comes in two flavors:
// a pre-interned Value (cq-layer constants, bound to one database's
// dictionary) or a database-independent name (metaquery-layer constants),
// resolved against the dictionary when the atom is materialized. A named
// constant absent from the active domain matches no tuple.
type Term struct {
	Var   string
	Const Value
	// ConstName, when non-empty, marks a named constant; Const is ignored.
	ConstName string
}

// V returns a variable term.
func V(name string) Term { return Term{Var: name} }

// C returns a pre-interned constant term.
func C(v Value) Term { return Term{Const: v} }

// CN returns a named constant term, resolved against the database
// dictionary at materialization time.
func CN(name string) Term { return Term{ConstName: name} }

// IsVar reports whether the term is a variable.
func (t Term) IsVar() bool { return t.Var != "" }

// Atom is a predicate applied to terms, e.g. p(X, Y, c). In metaquery
// rules the predicate is always a database relation name; conjunctive
// queries (Definition 3.2) additionally allow constant terms.
type Atom struct {
	Pred  string
	Terms []Term
}

// NewAtom builds an atom over variables only, the common case for
// instantiated metaqueries.
func NewAtom(pred string, vars ...string) Atom {
	terms := make([]Term, len(vars))
	for i, v := range vars {
		terms[i] = V(v)
	}
	return Atom{Pred: pred, Terms: terms}
}

// Vars returns the distinct variables of the atom in first-occurrence
// order; varo(a) in the paper.
func (a Atom) Vars() []string {
	var out []string
	seen := make(map[string]bool, len(a.Terms))
	for _, t := range a.Terms {
		if t.IsVar() && !seen[t.Var] {
			seen[t.Var] = true
			out = append(out, t.Var)
		}
	}
	return out
}

// Arity returns the number of terms.
func (a Atom) Arity() int { return len(a.Terms) }

// String formats the atom in Datalog syntax using variable names and raw
// value indices for constants. For constant names use StringDict.
func (a Atom) String() string { return a.StringDict(nil) }

// StringDict formats the atom, resolving interned constants through d when
// non-nil (see AppendTo).
func (a Atom) StringDict(d *Dict) string {
	var buf [64]byte
	return string(a.AppendTo(buf[:0], d))
}

// AppendTo appends the atom's Datalog rendering to dst and returns the
// extended slice. It is the one renderer behind String, StringDict and
// every cache key built from atom text, so callers holding a reusable
// buffer render without allocating. Interned constants resolve through d
// when non-nil and render as #index otherwise. Named constants render as
// their name, double-quoted when the bare name could be read as a variable
// (the metaquery parser's argument syntax), which keeps the rendering
// injective against variable terms.
func (a Atom) AppendTo(dst []byte, d *Dict) []byte {
	dst = append(dst, a.Pred...)
	dst = append(dst, '(')
	for i, t := range a.Terms {
		if i > 0 {
			dst = append(dst, ',')
		}
		switch {
		case t.IsVar():
			dst = append(dst, t.Var...)
		case t.ConstName != "":
			if constNameNeedsQuotes(t.ConstName) {
				dst = append(dst, '"')
				dst = append(dst, t.ConstName...)
				dst = append(dst, '"')
			} else {
				dst = append(dst, t.ConstName...)
			}
		case d != nil:
			dst = append(dst, d.Name(t.Const)...)
		default:
			dst = append(dst, '#')
			dst = strconv.AppendInt(dst, int64(t.Const), 10)
		}
	}
	return append(dst, ')')
}

// Equal reports whether a and b are the same atom without rendering
// either: same predicate, same arity, and position by position the same
// variable, the same named constant (Const is ignored when ConstName is
// set, as in rendering) or the same interned constant. For atoms whose
// variables follow the metaquery naming convention (upper-case or '_'
// initial) it agrees with a.String() == b.String().
func (a Atom) Equal(b Atom) bool {
	if a.Pred != b.Pred || len(a.Terms) != len(b.Terms) {
		return false
	}
	for i, t := range a.Terms {
		u := b.Terms[i]
		switch {
		case t.IsVar():
			if t.Var != u.Var {
				return false
			}
		case t.ConstName != "":
			if u.IsVar() || t.ConstName != u.ConstName {
				return false
			}
		default:
			if u.IsVar() || u.ConstName != "" || t.Const != u.Const {
				return false
			}
		}
	}
	return true
}

// constNameNeedsQuotes reports whether a named constant must be quoted to
// stay distinguishable from a variable or survive reparsing: names
// starting with an upper-case letter or '_' (the variable alphabets) and
// names containing bytes outside the identifier alphabet (letters, digits,
// '_', '\”) are quoted. It mirrors the metaquery parser's conventions.
func constNameNeedsQuotes(name string) bool {
	for i, r := range name {
		if i == 0 && (unicode.IsUpper(r) || r == '_') {
			return true
		}
		if !(unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '\'') {
			return true
		}
	}
	return name == ""
}

// AtomsVars returns att(R): the distinct variables across the given atoms in
// first-occurrence order.
func AtomsVars(atoms []Atom) []string {
	var out []string
	seen := make(map[string]bool)
	for _, a := range atoms {
		for _, t := range a.Terms {
			if t.IsVar() && !seen[t.Var] {
				seen[t.Var] = true
				out = append(out, t.Var)
			}
		}
	}
	return out
}
