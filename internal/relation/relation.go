package relation

import (
	"fmt"
	"sort"
)

// Relation is a named, fixed-arity set of tuples. Relations use set
// semantics: inserting a duplicate tuple is a no-op. Storage is columnar
// (a flat []Value arena plus an integer-hashed row set; see colstore.go).
//
// Deletions are tombstones: Delete marks the physical row dead without
// moving data, so existing row slices stay valid and a later Insert of the
// same tuple resurrects the row in place. Logical row numbering (Len/Row/
// Tuples) skips dead rows through a lazily rebuilt live-row index; Seal
// rebuilds it eagerly and compacts the arena once dead rows reach a
// quarter of the physical rows.
//
// A Relation is safe for concurrent readers only while no mutation —
// Insert, Delete, Seal — is in flight (mutators also rebuild the lazy
// live index, so a mutate/read race is a data race even on "read" paths).
// The engine's delta machinery upholds this by mutating only fresh
// Extend versions and Sealing them before publication.
type Relation struct {
	name  string
	arity int
	colStore

	// dead is the tombstone bitset over physical rows; ndead counts its
	// set bits. live maps logical row i (0 <= i < Len()) to its physical
	// row, rebuilt lazily when liveStale; both are unused while ndead == 0
	// (logical and physical numbering coincide).
	dead      []uint64
	ndead     int
	live      []int32
	liveStale bool
}

// NewRelation returns an empty relation with the given name and arity.
func NewRelation(name string, arity int) *Relation {
	if arity < 0 {
		panic("relation: negative arity")
	}
	r := &Relation{name: name, arity: arity}
	r.init(arity, 0)
	return r
}

// Name returns the relation name.
func (r *Relation) Name() string { return r.name }

// Arity returns the number of columns, a(R) in the paper.
func (r *Relation) Arity() int { return r.arity }

// Len returns |R|, the number of (live) tuples.
func (r *Relation) Len() int { return r.nrows - r.ndead }

// Insert adds t to the relation, ignoring duplicates. It reports whether the
// tuple was new; re-inserting a deleted tuple resurrects its tombstoned row
// in place and also reports true. Insert panics if len(t) differs from the
// relation arity, which indicates a programming error.
func (r *Relation) Insert(t Tuple) bool {
	if len(t) != r.arity {
		panic(fmt.Sprintf("relation %s: inserting tuple of length %d into arity-%d relation", r.name, len(t), r.arity))
	}
	if ph := r.find(t); ph >= 0 {
		if !r.isDead(ph) {
			return false
		}
		r.dead[ph>>6] &^= 1 << uint(ph&63)
		r.ndead--
		r.liveStale = true
		return true
	}
	// The membership probe above already proved t absent.
	r.addUnique(t)
	r.liveStale = true
	return true
}

// Delete removes t from the relation by tombstoning its row: the arena is
// untouched (previously returned row slices stay valid) and the row can be
// resurrected by a later Insert. It reports whether t was present.
func (r *Relation) Delete(t Tuple) bool {
	if len(t) != r.arity {
		return false
	}
	ph := r.find(t)
	if ph < 0 || r.isDead(ph) {
		return false
	}
	for len(r.dead)*64 <= ph {
		r.dead = append(r.dead, 0)
	}
	r.dead[ph>>6] |= 1 << uint(ph&63)
	r.ndead++
	r.liveStale = true
	return true
}

// isDead reports whether physical row ph is tombstoned.
func (r *Relation) isDead(ph int) bool {
	w := ph >> 6
	return w < len(r.dead) && r.dead[w]&(1<<uint(ph&63)) != 0
}

// Tombstones returns the number of dead (deleted, not yet compacted)
// physical rows the relation carries.
func (r *Relation) Tombstones() int { return r.ndead }

// ensureLive rebuilds the logical→physical row index after mutations. It is
// a no-op while the relation has no tombstones (identity numbering).
func (r *Relation) ensureLive() {
	if r.ndead == 0 || !r.liveStale && r.live != nil {
		return
	}
	live := r.live[:0]
	for ph := 0; ph < r.nrows; ph++ {
		if !r.isDead(ph) {
			live = append(live, int32(ph))
		}
	}
	r.live, r.liveStale = live, false
}

// Contains reports whether t is in the relation.
func (r *Relation) Contains(t Tuple) bool {
	if len(t) != r.arity {
		return false
	}
	ph := r.find(t)
	return ph >= 0 && !r.isDead(ph)
}

// Row returns tuple i (0 <= i < Len()) in insertion order as a slice into
// the relation's arena; the caller must not modify it.
func (r *Relation) Row(i int) Tuple {
	if r.ndead == 0 {
		return r.row(i)
	}
	r.ensureLive()
	return r.row(int(r.live[i]))
}

// Tuples returns the relation's (live) tuples in insertion order. Each call
// materializes a fresh header slice that the caller may reorder freely; the
// tuples themselves point into the relation's arena and must not be
// modified. Iterate with Len/Row in hot paths.
func (r *Relation) Tuples() []Tuple {
	if r.ndead == 0 {
		return r.headers()
	}
	r.ensureLive()
	out := make([]Tuple, len(r.live))
	for i, ph := range r.live {
		out[i] = r.row(int(ph))
	}
	return out
}

// Clone returns a deep copy of r. Tombstoned rows are not copied: the clone
// starts from a compact arena holding exactly the live tuples.
func (r *Relation) Clone() *Relation {
	c := &Relation{name: r.name, arity: r.arity}
	if r.ndead == 0 {
		c.cloneFrom(&r.colStore)
		return c
	}
	c.init(r.arity, r.Len())
	r.ensureLive()
	for _, ph := range r.live {
		c.addUnique(r.row(int(ph)))
	}
	return c
}

// Extend returns a new version of r that shares its columnar arena: the
// slot table and tombstone state are copied (row references, no tuple
// data), and subsequent Insert/Delete mutate only the extension — appended
// rows land past r's frontier in the shared backing array, which r never
// reads. Only the newest version of a relation may be extended or mutated
// (the engine's Apply serializes versions into a chain); r itself must be
// treated as immutable from here on.
func (r *Relation) Extend() *Relation {
	c := &Relation{name: r.name, arity: r.arity, ndead: r.ndead}
	c.width = r.width
	c.nrows = r.nrows
	c.data = r.data[:len(r.data)] // shared backing; only the newest version appends
	c.mask = r.mask
	if r.slots != nil {
		c.slots = append([]int32(nil), r.slots...)
	}
	if r.dead != nil {
		c.dead = append([]uint64(nil), r.dead...)
	}
	c.liveStale = true
	return c
}

// compactRatio is the tombstone fraction that triggers arena compaction in
// Seal: once dead rows reach 1/compactRatio of the physical rows, the live
// tuples are rewritten into a fresh exactly-sized arena. Reclaiming at
// least a quarter of the arena per compaction keeps the amortized cost per
// deleted tuple constant.
const compactRatio = 4

// Seal prepares the relation for publication to concurrent readers after a
// mutation batch: the live-row index is rebuilt eagerly (so no later read
// mutates lazy state) and the arena is compacted when tombstones have
// reached a quarter of the physical rows. It reports whether a compaction
// ran.
func (r *Relation) Seal() bool {
	if r.ndead > 0 && r.ndead*compactRatio >= r.nrows {
		r.compact()
		return true
	}
	r.ensureLive()
	return false
}

// compact rewrites the live tuples into a fresh exactly-sized arena,
// dropping every tombstone.
func (r *Relation) compact() {
	var c colStore
	c.init(r.arity, r.Len())
	for ph := 0; ph < r.nrows; ph++ {
		if !r.isDead(ph) {
			c.addUnique(r.row(ph))
		}
	}
	r.colStore = c
	r.dead, r.ndead, r.live, r.liveStale = nil, 0, nil, false
}

// Database is a finite database instance (D, R1, ..., Rn): an interning
// dictionary for the domain D plus a set of named relations.
type Database struct {
	dict  *Dict
	rels  map[string]*Relation
	order []string // relation names in creation order
}

// NewDatabase returns an empty database.
func NewDatabase() *Database {
	return &Database{
		dict: newDict(),
		rels: make(map[string]*Relation),
	}
}

// Dict returns the database's constant dictionary.
func (db *Database) Dict() *Dict { return db.dict }

// AddRelation creates (or returns the existing) relation with the given name
// and arity. It returns an error if a relation of the same name but a
// different arity already exists.
func (db *Database) AddRelation(name string, arity int) (*Relation, error) {
	if r, ok := db.rels[name]; ok {
		if r.arity != arity {
			return nil, fmt.Errorf("relation: %s already exists with arity %d (requested %d)", name, r.arity, arity)
		}
		return r, nil
	}
	r := NewRelation(name, arity)
	db.rels[name] = r
	db.order = append(db.order, name)
	return r, nil
}

// MustAddRelation is AddRelation for construction code where an arity clash
// is a programming error.
func (db *Database) MustAddRelation(name string, arity int) *Relation {
	r, err := db.AddRelation(name, arity)
	if err != nil {
		panic(err)
	}
	return r
}

// Relation returns the named relation, or nil if absent.
func (db *Database) Relation(name string) *Relation { return db.rels[name] }

// RelationNames returns all relation names, sorted, i.e. rel(DB).
func (db *Database) RelationNames() []string {
	out := make([]string, len(db.order))
	copy(out, db.order)
	sort.Strings(out)
	return out
}

// NumRelations returns the number of relations in the database.
func (db *Database) NumRelations() int { return len(db.rels) }

// InsertNamed interns the given constant names and inserts the resulting
// tuple into the named relation, creating the relation on first use.
func (db *Database) InsertNamed(rel string, consts ...string) error {
	r, err := db.AddRelation(rel, len(consts))
	if err != nil {
		return err
	}
	t := make(Tuple, len(consts))
	for i, c := range consts {
		t[i] = db.dict.Intern(c)
	}
	r.Insert(t)
	return nil
}

// MustInsertNamed is InsertNamed for construction code.
func (db *Database) MustInsertNamed(rel string, consts ...string) {
	if err := db.InsertNamed(rel, consts...); err != nil {
		panic(err)
	}
}

// Size returns the total number of tuples across all relations; the "size of
// DB" under the data complexity measure.
func (db *Database) Size() int {
	n := 0
	for _, r := range db.rels {
		n += r.Len()
	}
	return n
}

// MaxRelationSize returns d, the size of the largest relation in the
// database (as used in Theorem 4.12), or 0 for an empty database.
func (db *Database) MaxRelationSize() int {
	d := 0
	for _, r := range db.rels {
		if r.Len() > d {
			d = r.Len()
		}
	}
	return d
}

// Clone returns a deep copy of the database sharing no mutable state.
func (db *Database) Clone() *Database {
	c := NewDatabase()
	// Preserve interning so Values remain comparable across the copy.
	for _, name := range db.dict.interned() {
		c.dict.Intern(name)
	}
	for _, name := range db.order {
		r := db.rels[name]
		c.rels[name] = r.Clone()
		c.order = append(c.order, name)
	}
	return c
}

// Unchanged reports whether relation name resolves to the same *Relation
// in db and in old, an earlier version db was derived from by Extend.
// Extend shares unchanged relations by pointer, so pointer equality is
// exactly "this relation's rows did not change"; a relation missing from
// db counts as changed.
func (db *Database) Unchanged(old *Database, name string) bool {
	r := db.Relation(name)
	return r != nil && r == old.Relation(name)
}

// Extend returns a new database version sharing the dictionary and every
// relation not named in replace; the named relations are swapped in (new
// names append to the creation order). It is the copy-on-write step behind
// the engine's epoch snapshots: unchanged relations are shared by pointer,
// so neither version may mutate them, and the shared dictionary grows
// append-only (Dict is internally locked).
func (db *Database) Extend(replace map[string]*Relation) *Database {
	c := &Database{
		dict:  db.dict,
		rels:  make(map[string]*Relation, len(db.rels)+len(replace)),
		order: db.order,
	}
	for name, r := range db.rels {
		c.rels[name] = r
	}
	added := make([]string, 0, len(replace))
	for name, r := range replace {
		if _, ok := c.rels[name]; !ok {
			added = append(added, name)
		}
		c.rels[name] = r
	}
	if len(added) > 0 {
		sort.Strings(added) // deterministic creation order for a batch of new relations
		c.order = append(append([]string(nil), db.order...), added...)
	}
	return c
}
