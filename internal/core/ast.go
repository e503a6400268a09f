// Package core implements the paper's primary contribution: metaquery
// syntax and semantics (Section 2). It defines literal schemes, metaqueries,
// the three instantiation types (Definitions 2.1–2.4), the plausibility
// indices support, confidence and cover (Definitions 2.5–2.7), and the
// decision problems of Section 3.2, together with a naive answering engine
// used as the reference implementation.
package core

import (
	"fmt"
	"strings"

	"github.com/mqgo/metaquery/internal/hypergraph"
	"github.com/mqgo/metaquery/internal/relation"
)

// LiteralScheme is one literal of a metaquery: Q(Y1, ..., Yn) where Q is
// either a predicate (second-order) variable or a relation name, and each
// Yi is an ordinary (first-order) variable or a constant. When PredVar is
// true the scheme is a relation pattern; otherwise it is an atom.
//
// Arguments follow the Datalog naming convention: a name starting with an
// upper-case letter or '_' is an ordinary variable, anything else is a
// constant (see IsConstName). Constants are database-independent names,
// resolved against the active domain when the scheme is materialized; a
// constant absent from the domain matches no tuple.
type LiteralScheme struct {
	Pred    string
	PredVar bool
	Args    []string
}

// IsConstName reports whether a literal-scheme argument denotes a constant
// under the metaquery naming convention: any non-empty name that does not
// start with an upper-case letter or '_'.
func IsConstName(s string) bool {
	if s == "" {
		return false
	}
	return !startsUpper(s) && s[0] != '_'
}

// Pattern builds a relation pattern Q(args...).
func Pattern(q string, args ...string) LiteralScheme {
	return LiteralScheme{Pred: q, PredVar: true, Args: args}
}

// SchemeAtom builds an ordinary atom r(args...) appearing in a metaquery.
func SchemeAtom(r string, args ...string) LiteralScheme {
	return LiteralScheme{Pred: r, PredVar: false, Args: args}
}

// Arity returns the number of arguments.
func (l LiteralScheme) Arity() int { return len(l.Args) }

// Vars returns varo(l): the distinct ordinary variables in first-occurrence
// order. Constant arguments are not variables and are excluded.
func (l LiteralScheme) Vars() []string {
	seen := make(map[string]bool, len(l.Args))
	var out []string
	for _, a := range l.Args {
		if IsConstName(a) {
			continue
		}
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	return out
}

// Key returns a canonical identity for the scheme. Two syntactically equal
// literal schemes are the same element of ls(MQ) (literal schemes form a
// set in the paper).
func (l LiteralScheme) Key() string {
	var buf [64]byte
	return string(l.appendKey(buf[:0]))
}

// appendKey appends the Key rendering of l to dst. Map lookups index with
// string(l.appendKey(stackBuf)), which the compiler performs without
// allocating a string.
func (l LiteralScheme) appendKey(dst []byte) []byte {
	if l.PredVar {
		dst = append(dst, '?')
	}
	dst = append(dst, l.Pred...)
	dst = append(dst, '(')
	for i, a := range l.Args {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, a...)
	}
	return append(dst, ')')
}

// String renders the scheme in the paper's syntax. Relation names that
// would reparse as predicate variables (upper-case initial) or that contain
// bytes outside the identifier alphabet are double-quoted, exactly as the
// parser accepts them, so Parse(mq.String()) reconstructs any mq the parser
// can produce. The one exclusion: the quoted syntax has no escape sequence,
// so a programmatically built relation name containing '"' itself renders
// as a literal that cannot be reparsed.
func (l LiteralScheme) String() string {
	var buf [64]byte
	return string(l.appendTo(buf[:0]))
}

// appendTo appends the String rendering of l to dst.
func (l LiteralScheme) appendTo(dst []byte) []byte {
	if !l.PredVar && relNameNeedsQuotes(l.Pred) {
		dst = append(dst, '"')
		dst = append(dst, l.Pred...)
		dst = append(dst, '"')
	} else {
		dst = append(dst, l.Pred...)
	}
	dst = append(dst, '(')
	for i, a := range l.Args {
		if i > 0 {
			dst = append(dst, ',')
		}
		// Constants whose bare rendering would not reparse as a constant
		// (non-identifier bytes) are double-quoted, exactly as the parser
		// accepts them.
		if IsConstName(a) && constArgNeedsQuotes(a) {
			dst = append(dst, '"')
			dst = append(dst, a...)
			dst = append(dst, '"')
		} else {
			dst = append(dst, a...)
		}
	}
	return append(dst, ')')
}

// constArgNeedsQuotes reports whether a constant argument must be quoted
// to survive reparsing: any byte outside the identifier alphabet. (A
// constant never starts upper-case or with '_', by IsConstName.)
func constArgNeedsQuotes(arg string) bool {
	for i := 0; i < len(arg); i++ {
		if !isIdentRune(rune(arg[i])) {
			return true
		}
	}
	return false
}

// relNameNeedsQuotes reports whether a relation name must be quoted to
// survive reparsing. The byte-wise scan mirrors parseIdent, which consumes
// input byte by byte.
func relNameNeedsQuotes(name string) bool {
	if startsUpper(name) {
		return true
	}
	for i := 0; i < len(name); i++ {
		if !isIdentRune(rune(name[i])) {
			return true
		}
	}
	return false
}

// Atom converts an ordinary (non-pattern) literal scheme to a relation.Atom,
// mapping constant arguments to named-constant terms (resolved against the
// database dictionary at materialization). It panics if l is a relation
// pattern.
func (l LiteralScheme) Atom() relation.Atom {
	if l.PredVar {
		panic("core: Atom called on a relation pattern")
	}
	return atomOver(l.Pred, l.Args)
}

// atomOver builds a relation.Atom over pred from metaquery argument names,
// preserving the variable/constant classification of each argument. It is
// the one place scheme arguments become relation terms, shared by ordinary
// atoms and pattern candidate generation.
func atomOver(pred string, args []string) relation.Atom {
	terms := make([]relation.Term, len(args))
	for i, a := range args {
		if IsConstName(a) {
			terms[i] = relation.CN(a)
		} else {
			terms[i] = relation.V(a)
		}
	}
	return relation.Atom{Pred: pred, Terms: terms}
}

// Metaquery is a second-order Horn template T <- L1, ..., Lm (form (3) of
// the paper). The body must be non-empty.
type Metaquery struct {
	Head LiteralScheme
	Body []LiteralScheme
}

// NewMetaquery builds a metaquery and validates its shape.
func NewMetaquery(head LiteralScheme, body ...LiteralScheme) (*Metaquery, error) {
	mq := &Metaquery{Head: head, Body: body}
	if err := mq.Check(); err != nil {
		return nil, err
	}
	return mq, nil
}

// Check validates structural well-formedness: non-empty body, non-empty
// predicate names, and no variable names colliding with the reserved
// fresh-variable namespace.
func (mq *Metaquery) Check() error {
	if len(mq.Body) == 0 {
		return fmt.Errorf("core: metaquery must have a non-empty body")
	}
	for _, l := range mq.LiteralSchemes() {
		if l.Pred == "" {
			return fmt.Errorf("core: empty predicate in literal scheme")
		}
		for _, a := range l.Args {
			if a == "" {
				return fmt.Errorf("core: empty variable in scheme %s", l)
			}
			if strings.HasPrefix(a, freshPrefix) {
				return fmt.Errorf("core: variable %q uses the reserved prefix %q", a, freshPrefix)
			}
		}
	}
	return nil
}

// LiteralSchemes returns ls(MQ): the set of literal schemes of MQ (head and
// body), deduplicated, head first then body in order.
func (mq *Metaquery) LiteralSchemes() []LiteralScheme {
	seen := make(map[string]bool)
	out := make([]LiteralScheme, 0, len(mq.Body)+1)
	add := func(l LiteralScheme) {
		k := l.Key()
		if !seen[k] {
			seen[k] = true
			out = append(out, l)
		}
	}
	add(mq.Head)
	for _, l := range mq.Body {
		add(l)
	}
	return out
}

// RelationPatterns returns rep(MQ): the distinct relation patterns of MQ,
// head first.
func (mq *Metaquery) RelationPatterns() []LiteralScheme {
	var out []LiteralScheme
	for _, l := range mq.LiteralSchemes() {
		if l.PredVar {
			out = append(out, l)
		}
	}
	return out
}

// PredicateVars returns pv(MQ): the distinct predicate variables, in
// first-occurrence order (head first).
func (mq *Metaquery) PredicateVars() []string {
	seen := make(map[string]bool)
	var out []string
	for _, l := range mq.RelationPatterns() {
		if !seen[l.Pred] {
			seen[l.Pred] = true
			out = append(out, l.Pred)
		}
	}
	return out
}

// OrdinaryVars returns varo(MQ): distinct ordinary variables across all
// literal schemes, in first-occurrence order. Constant arguments are
// excluded.
func (mq *Metaquery) OrdinaryVars() []string {
	seen := make(map[string]bool)
	var out []string
	for _, l := range mq.LiteralSchemes() {
		for _, a := range l.Args {
			if IsConstName(a) {
				continue
			}
			if !seen[a] {
				seen[a] = true
				out = append(out, a)
			}
		}
	}
	return out
}

// IsPure reports whether MQ is pure: every two relation patterns with the
// same predicate variable have the same arity. Type-0 and type-1
// instantiations require pure metaqueries.
func (mq *Metaquery) IsPure() bool {
	arity := make(map[string]int)
	for _, l := range mq.RelationPatterns() {
		if a, ok := arity[l.Pred]; ok {
			if a != len(l.Args) {
				return false
			}
		} else {
			arity[l.Pred] = len(l.Args)
		}
	}
	return true
}

// predVarVertex namespaces predicate variables in H(MQ) so that a predicate
// variable named like an ordinary variable yields distinct vertices.
const predVarVertex = "^"

// Hypergraph returns H(MQ) of Definition 3.31: one vertex per (predicate or
// ordinary) variable and one edge var(L) per literal scheme L. Edge IDs are
// indices into LiteralSchemes().
func (mq *Metaquery) Hypergraph() *hypergraph.Hypergraph {
	h := &hypergraph.Hypergraph{}
	for i, l := range mq.LiteralSchemes() {
		var vs []string
		if l.PredVar {
			vs = append(vs, predVarVertex+l.Pred)
		}
		vs = append(vs, l.Vars()...)
		h.Edges = append(h.Edges, hypergraph.Edge{ID: i, Vertices: vs})
	}
	return h
}

// SemiHypergraph returns SH(MQ) of Definition 3.31: vertices are the
// ordinary variables only; one edge varo(L) per literal scheme.
func (mq *Metaquery) SemiHypergraph() *hypergraph.Hypergraph {
	h := &hypergraph.Hypergraph{}
	for i, l := range mq.LiteralSchemes() {
		h.Edges = append(h.Edges, hypergraph.Edge{ID: i, Vertices: l.Vars()})
	}
	return h
}

// IsAcyclic reports whether MQ is acyclic: H(MQ) is acyclic.
func (mq *Metaquery) IsAcyclic() bool { return hypergraph.IsAcyclic(mq.Hypergraph()) }

// IsSemiAcyclic reports whether MQ is semi-acyclic: SH(MQ) is acyclic.
// Every acyclic metaquery is semi-acyclic.
func (mq *Metaquery) IsSemiAcyclic() bool { return hypergraph.IsAcyclic(mq.SemiHypergraph()) }

// String renders the metaquery in the paper's arrow syntax.
func (mq *Metaquery) String() string {
	var buf [128]byte
	dst := mq.Head.appendTo(buf[:0])
	dst = append(dst, " <- "...)
	for i, l := range mq.Body {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = l.appendTo(dst)
	}
	return string(dst)
}

// Rule is an ordinary Horn rule over a database: the result of applying an
// instantiation to a metaquery.
type Rule struct {
	Head relation.Atom
	Body []relation.Atom
}

// HeadAtoms returns h(r): the singleton set of head atoms.
func (r Rule) HeadAtoms() []relation.Atom { return []relation.Atom{r.Head} }

// BodyAtoms returns b(r): the set of body atoms, deduplicated in
// first-occurrence order. Bodies hold a handful of atoms, so a linear
// Atom.Equal scan beats hashing rendered keys.
func (r Rule) BodyAtoms() []relation.Atom {
	out := make([]relation.Atom, 0, len(r.Body))
next:
	for _, a := range r.Body {
		for _, b := range out {
			if a.Equal(b) {
				continue next
			}
		}
		out = append(out, a)
	}
	return out
}

// AllAtoms returns the atoms of the rule, head first, deduplicated.
func (r Rule) AllAtoms() []relation.Atom {
	return append([]relation.Atom{r.Head}, r.BodyAtoms()...)
}

// String renders the rule in Datalog arrow syntax.
func (r Rule) String() string {
	var buf [128]byte
	return string(r.AppendTo(buf[:0]))
}

// AppendTo appends the String rendering of r to dst and returns the
// extended slice, rendering every atom through relation.Atom.AppendTo.
func (r Rule) AppendTo(dst []byte) []byte {
	dst = r.Head.AppendTo(dst, nil)
	dst = append(dst, " <- "...)
	for i, a := range r.Body {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = a.AppendTo(dst, nil)
	}
	return dst
}
