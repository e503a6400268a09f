package relation

// This file implements the packed-key index KeyCounts uses for keys of one
// or two columns, the common case on narrow relations. Such a key fits in
// one uint64, so the index hashes it with one multiplication and compares
// it as one word kept in its slot, where the generic path (a key table
// with the FNV row set of colstore.go) hashes column by column and
// re-reads the stored row through a position list to compare. Keys of
// three or more columns, and a table used as its own index (the row-set
// path), keep the generic path.

import "math/bits"

// packable reports whether a key over n columns takes the packed path.
func packable(n int) bool { return n == 1 || n == 2 }

// packAt packs row's values at pos, one or two positions, into a key:
// the first value in the low 32 bits, the second (if any) in the high 32.
func packAt(row Tuple, pos []int) uint64 {
	k := uint64(uint32(row[pos[0]]))
	if len(pos) == 2 {
		k |= uint64(uint32(row[pos[1]])) << 32
	}
	return k
}

// packedIndex is an open-addressing hash table of packed keys with linear
// probing. It is sized once per build for the number of rows indexed, an
// upper bound on its distinct keys, so it never grows while filled; its
// slot array keeps its capacity across builds.
type packedIndex struct {
	slots []packedSlot
	shift uint
	mask  uint64
}

// packedSlot is one key of a packedIndex: the number of indexed rows that
// carry it (0 marks an empty slot) and a pass stamp for the probing side.
type packedSlot struct {
	key  uint64
	rows int32
	mark uint32
}

// countKeys empties the index and fills it with the keys of c's rows on
// pos, each with the number of rows carrying it.
func (p *packedIndex) countKeys(c *colStore, pos []int) {
	size := slotsFor(c.nrows)
	if cap(p.slots) >= size {
		p.slots = p.slots[:size]
		clear(p.slots)
	} else {
		p.slots = make([]packedSlot, size)
	}
	p.mask = uint64(size - 1)
	p.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for r := 0; r < c.nrows; r++ {
		k := packAt(c.row(r), pos)
		i := p.home(k)
		for p.slots[i].rows != 0 && p.slots[i].key != k {
			i = (i + 1) & p.mask
		}
		p.slots[i].key = k
		p.slots[i].rows++
	}
}

// home returns the first slot of key k's probe sequence: the high bits of
// k times 2^64/φ, the golden ratio φ (multiplicative hashing).
func (p *packedIndex) home(k uint64) uint64 {
	return (k * 0x9E3779B97F4A7C15) >> p.shift
}

// find returns the slot holding key k, or nil when no indexed row carries
// it.
func (p *packedIndex) find(k uint64) *packedSlot {
	for i := p.home(k); ; i = (i + 1) & p.mask {
		s := &p.slots[i]
		if s.rows == 0 {
			return nil
		}
		if s.key == k {
			return s
		}
	}
}

// clearMarks zeroes every pass stamp.
func (p *packedIndex) clearMarks() {
	for i := range p.slots {
		p.slots[i].mark = 0
	}
}
