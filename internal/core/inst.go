package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"github.com/mqgo/metaquery/internal/relation"
)

// InstType selects one of the paper's three instantiation semantics
// (Definitions 2.2-2.4).
type InstType int

const (
	// Type0 matches each relation pattern to a relation of the same arity,
	// leaving the argument list untouched (Definition 2.2).
	Type0 InstType = iota
	// Type1 additionally allows the matched atom's arguments to be any
	// permutation of the pattern's arguments (Definition 2.3).
	Type1
	// Type2 allows matching into a relation of larger arity: the pattern's k
	// arguments appear at k distinct positions, and the remaining positions
	// are padded with fresh variables occurring nowhere else in the
	// instantiated rule (Definition 2.4).
	Type2
)

// String returns "type-0", "type-1" or "type-2".
func (t InstType) String() string {
	switch t {
	case Type0:
		return "type-0"
	case Type1:
		return "type-1"
	case Type2:
		return "type-2"
	default:
		return fmt.Sprintf("type-%d", int(t))
	}
}

// freshPrefix is the reserved namespace for type-2 padding variables. The
// parser and Check reject user variables in this namespace, guaranteeing
// padding variables occur nowhere else in the instantiated rule.
const freshPrefix = "_f"

// freshVar names the padding variable for position pos of the pattern with
// the given index in rep(MQ). Keyed naming makes enumeration canonical: two
// instantiations are equal iff their assignments are.
func freshVar(patternIdx, pos int) string {
	return fmt.Sprintf("%s%d_%d", freshPrefix, patternIdx, pos)
}

// Instantiation is a mapping σ from the relation patterns of a metaquery to
// atoms over database relations whose restriction to predicate variables is
// functional (Definition 2.1). Ordinary (non-pattern) literal schemes are
// untouched by σ.
//
// A metaquery has a handful of relation patterns, so σ is one slice of
// (pattern, atom) bindings searched linearly by the pattern's predicate
// variable and argument list. σ' needs no storage of its own: Assign keeps
// the bindings functional on predicate variables, so σ'(Q) is the relation
// of any binding whose pattern has predicate variable Q. Lookups, Unassign
// and an Assign within the slice's capacity allocate nothing.
type Instantiation struct {
	b []binding
}

// binding is one pattern -> atom entry of σ. The scheme is always a
// relation pattern (PredVar set); both it and the atom share their argument
// slices with the metaquery and the candidate lists, which never mutate.
type binding struct {
	scheme LiteralScheme
	atom   relation.Atom
}

// NewInstantiation returns an empty instantiation.
func NewInstantiation() *Instantiation { return &Instantiation{} }

// Clone returns an independent copy of σ. The copy has room for one more
// binding, so completing a body instantiation with its head does not grow
// it.
func (s *Instantiation) Clone() *Instantiation {
	b := make([]binding, len(s.b), len(s.b)+1)
	copy(b, s.b)
	return &Instantiation{b: b}
}

// find returns the index of pattern l's binding, or -1.
func (s *Instantiation) find(l LiteralScheme) int {
	if !l.PredVar {
		return -1
	}
	for i := range s.b {
		if samePattern(s.b[i].scheme, l) {
			return i
		}
	}
	return -1
}

// samePattern reports whether two relation patterns are the same element
// of ls(MQ): same predicate variable and argument list, which is exactly
// when their Keys are equal.
func samePattern(l, m LiteralScheme) bool {
	return l.Pred == m.Pred && slices.Equal(l.Args, m.Args)
}

// Assign records that pattern l maps to atom a. It returns an error if l is
// already assigned to a different atom or if the assignment would make the
// predicate-variable restriction non-functional.
func (s *Instantiation) Assign(l LiteralScheme, a relation.Atom) error {
	if !l.PredVar {
		return fmt.Errorf("core: assigning to non-pattern scheme %s", l)
	}
	if i := s.find(l); i >= 0 {
		if prev := s.b[i].atom; !prev.Equal(a) {
			return fmt.Errorf("core: pattern %s already assigned to %s", l, prev)
		}
		return nil
	}
	if rel, ok := s.RelationOf(l.Pred); ok && rel != a.Pred {
		return fmt.Errorf("core: predicate variable %s already mapped to %s, cannot map to %s", l.Pred, rel, a.Pred)
	}
	s.b = append(s.b, binding{scheme: l, atom: a})
	return nil
}

// Unassign removes the assignment for pattern l. σ'(l.Pred) stays defined
// exactly while another assigned pattern shares the predicate variable.
func (s *Instantiation) Unassign(l LiteralScheme) {
	i := s.find(l)
	if i < 0 {
		return
	}
	last := len(s.b) - 1
	copy(s.b[i:], s.b[i+1:])
	s.b[last] = binding{}
	s.b = s.b[:last]
}

// AtomFor returns the atom assigned to pattern l, if any.
func (s *Instantiation) AtomFor(l LiteralScheme) (relation.Atom, bool) {
	if i := s.find(l); i >= 0 {
		return s.b[i].atom, true
	}
	return relation.Atom{}, false
}

// RelationOf returns σ'(q): the relation assigned to predicate variable q.
func (s *Instantiation) RelationOf(q string) (string, bool) {
	for i := range s.b {
		if s.b[i].scheme.Pred == q {
			return s.b[i].atom.Pred, true
		}
	}
	return "", false
}

// Len returns the number of assigned patterns.
func (s *Instantiation) Len() int { return len(s.b) }

// Agrees reports whether s and t agree in the sense of Definition 4.13:
// they assign the same atoms to shared patterns and the same relations to
// shared predicate variables.
func (s *Instantiation) Agrees(t *Instantiation) bool {
	for _, x := range s.b {
		for _, y := range t.b {
			if x.scheme.Pred != y.scheme.Pred {
				continue
			}
			if x.atom.Pred != y.atom.Pred {
				return false
			}
			if samePattern(x.scheme, y.scheme) && !x.atom.Equal(y.atom) {
				return false
			}
		}
	}
	return true
}

// Compose returns σ ∘ µ for agreeing instantiations, or an error.
func (s *Instantiation) Compose(t *Instantiation) (*Instantiation, error) {
	if !s.Agrees(t) {
		return nil, fmt.Errorf("core: composing non-agreeing instantiations")
	}
	c := s.Clone()
	for _, y := range t.b {
		if c.find(y.scheme) < 0 {
			c.b = append(c.b, y)
		}
	}
	return c, nil
}

// applyScheme maps one literal scheme through σ. Non-pattern schemes pass
// through unchanged.
func (s *Instantiation) applyScheme(l LiteralScheme) (relation.Atom, error) {
	if !l.PredVar {
		return l.Atom(), nil
	}
	a, ok := s.AtomFor(l)
	if !ok {
		return relation.Atom{}, fmt.Errorf("core: pattern %s unassigned", l)
	}
	return a, nil
}

// Apply produces the Horn rule σ(MQ). Every relation pattern of MQ must be
// assigned.
func (s *Instantiation) Apply(mq *Metaquery) (Rule, error) {
	head, err := s.applyScheme(mq.Head)
	if err != nil {
		return Rule{}, err
	}
	body := make([]relation.Atom, 0, len(mq.Body))
	for _, l := range mq.Body {
		a, err := s.applyScheme(l)
		if err != nil {
			return Rule{}, err
		}
		body = append(body, a)
	}
	return Rule{Head: head, Body: body}, nil
}

// sortedBindings pairs every binding's pattern key (LiteralScheme.Key) with
// its atom, in key order: the canonical order of String and Key.
func (s *Instantiation) sortedBindings() []keyedAtom {
	out := make([]keyedAtom, len(s.b))
	for i, x := range s.b {
		out[i] = keyedAtom{key: x.scheme.Key(), atom: x.atom}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

type keyedAtom struct {
	key  string
	atom relation.Atom
}

// String renders σ as a sorted list of pattern->atom bindings.
func (s *Instantiation) String() string {
	kv := s.sortedBindings()
	parts := make([]string, len(kv))
	for i, x := range kv {
		parts[i] = fmt.Sprintf("%s -> %s", strings.TrimPrefix(x.key, "?"), x.atom.String())
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// Key returns a canonical identity for σ, used to deduplicate
// instantiations during enumeration.
func (s *Instantiation) Key() string {
	var b strings.Builder
	for _, x := range s.sortedBindings() {
		b.WriteString(x.key)
		b.WriteString("=>")
		b.WriteString(x.atom.String())
		b.WriteByte(';')
	}
	return b.String()
}
