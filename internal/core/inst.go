package core

import (
	"fmt"
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
type Instantiation struct {
	// assign maps LiteralScheme.Key() of each relation pattern to its atom.
	assign map[string]relation.Atom
	// relOf maps each predicate variable to its relation name (σ').
	relOf map[string]string
}

// NewInstantiation returns an empty instantiation.
func NewInstantiation() *Instantiation {
	return &Instantiation{
		assign: make(map[string]relation.Atom),
		relOf:  make(map[string]string),
	}
}

// Clone returns an independent copy of σ.
func (s *Instantiation) Clone() *Instantiation {
	c := NewInstantiation()
	for k, v := range s.assign {
		c.assign[k] = v
	}
	for k, v := range s.relOf {
		c.relOf[k] = v
	}
	return c
}

// Assign records that pattern l maps to atom a. It returns an error if l is
// already assigned to a different atom or if the assignment would make the
// predicate-variable restriction non-functional.
func (s *Instantiation) Assign(l LiteralScheme, a relation.Atom) error {
	if !l.PredVar {
		return fmt.Errorf("core: assigning to non-pattern scheme %s", l)
	}
	var buf [64]byte
	key := l.appendKey(buf[:0])
	if prev, ok := s.assign[string(key)]; ok {
		if !prev.Equal(a) {
			return fmt.Errorf("core: pattern %s already assigned to %s", l, prev)
		}
		return nil
	}
	if rel, ok := s.relOf[l.Pred]; ok && rel != a.Pred {
		return fmt.Errorf("core: predicate variable %s already mapped to %s, cannot map to %s", l.Pred, rel, a.Pred)
	}
	s.assign[string(key)] = a
	s.relOf[l.Pred] = a.Pred
	return nil
}

// Unassign removes the assignment for pattern l, restoring σ'
// bookkeeping: the predicate variable's relation binding is dropped when no
// other assigned pattern uses that predicate variable.
func (s *Instantiation) Unassign(l LiteralScheme) {
	var buf [64]byte
	key := l.appendKey(buf[:0])
	if _, ok := s.assign[string(key)]; !ok {
		return
	}
	delete(s.assign, string(key))
	// Drop the σ' binding unless another assigned pattern shares the
	// predicate variable. Pattern keys encode "?Pred(args)".
	n := len(l.Pred) + 1
	for k := range s.assign {
		if len(k) > n && k[n] == '(' && k[1:n] == l.Pred {
			return
		}
	}
	delete(s.relOf, l.Pred)
}

// AtomFor returns the atom assigned to pattern l, if any.
func (s *Instantiation) AtomFor(l LiteralScheme) (relation.Atom, bool) {
	var buf [64]byte
	a, ok := s.assign[string(l.appendKey(buf[:0]))]
	return a, ok
}

// RelationOf returns σ'(q): the relation assigned to predicate variable q.
func (s *Instantiation) RelationOf(q string) (string, bool) {
	r, ok := s.relOf[q]
	return r, ok
}

// Len returns the number of assigned patterns.
func (s *Instantiation) Len() int { return len(s.assign) }

// Agrees reports whether s and t agree in the sense of Definition 4.13:
// they assign the same atoms to shared patterns and the same relations to
// shared predicate variables.
func (s *Instantiation) Agrees(t *Instantiation) bool {
	for k, a := range s.assign {
		if b, ok := t.assign[k]; ok && !b.Equal(a) {
			return false
		}
	}
	for q, r := range s.relOf {
		if r2, ok := t.relOf[q]; ok && r2 != r {
			return false
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
	for k, a := range t.assign {
		c.assign[k] = a
	}
	for q, r := range t.relOf {
		c.relOf[q] = r
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

// String renders σ as a sorted list of pattern->atom bindings.
func (s *Instantiation) String() string {
	keys := make([]string, 0, len(s.assign))
	for k := range s.assign {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		a := s.assign[k]
		parts[i] = fmt.Sprintf("%s -> %s", strings.TrimPrefix(k, "?"), a.String())
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// Key returns a canonical identity for σ, used to deduplicate
// instantiations during enumeration.
func (s *Instantiation) Key() string {
	keys := make([]string, 0, len(s.assign))
	for k := range s.assign {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteString("=>")
		b.WriteString(s.assign[k].String())
		b.WriteByte(';')
	}
	return b.String()
}
