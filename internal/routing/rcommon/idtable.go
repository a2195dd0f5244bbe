package rcommon

import (
	"fmt"
	"math/bits"

	"slr/internal/netstack"
)

// IDTable maps node ids to values of T held by value in one flat slab. A
// key is a node id in [0, 2^31), stored in 32 bits: ids are dense and
// spec.ValidateParams bounds the node count, so Put refuses any other id
// instead of truncating it into one that could alias a stored key. An
// entry is its value plus the 4-byte key, rounded up to the value's
// alignment: 12 bytes for a value of two int32s, 24 for one of two
// 8-byte words, 64 for a 56-byte value. An open-addressed index (one
// multiplicative hash, linear probing) finds an entry, so a table costs
// no heap object per entry and a lookup hashes nothing but one multiply.
// The zero value is an empty table.
//
// Index slots are 4 bytes. With b = log2 of the index length, a slot packs
// the slab position + 1 (0 = empty) in its low b bits and a tag in the
// rest: the key's hash bits just below the b home bits. A probe compares
// tags first and reads the slab entry only on a tag match, so a miss or a
// collision rarely touches the cold slab. That is what lets the index run
// at up to 3/4 load: it doubles when an entry would take it past that.
//
// Pointer validity: a *T returned by Get, Put or At points into the slab.
// It is valid until the next Put or Delete on the same table — Put
// may move the slab to grow it, Delete moves the last entry into the freed
// slot — and must not be kept, or captured by a closure, past any of them.
//
// Order: slots 0…Len()-1 are dense. Their order is a function of the
// Put/Delete history alone, never of hashing, so a walk is deterministic;
// it is not sorted. To delete while walking, walk from Len()-1 down: the
// entry Delete swaps into slot i is one the walk has already visited.
type IDTable[T any] struct {
	slab  []idEntry[T]
	index []uint32 // tag | slab position + 1, or 0; len is a power of two
	// mask is len(index) - 1, and the home position of a key is the top
	// logN bits of its 32-bit hash (shift = 32 - logN). Get's budget is why
	// the three are kept rather than derived.
	mask  uint32
	logN  uint8
	shift uint8
}

// idEntry puts val first: Get's &e.val at offset 0 is free in the
// inliner's cost model. The key fills what would otherwise be padding
// wherever T's size leaves 4 bytes to its alignment.
type idEntry[T any] struct {
	val T
	key uint32
}

// idTableMinIndex is the index size of a table's first entry.
const idTableMinIndex = 8

// maxIDKey is the largest key a table stores, 2^31 - 1. A negative id
// converts to a uint64 above it.
const maxIDKey = 1<<31 - 1

// idHashMul is 2^32/φ, rounded to odd: key × idHashMul mod 2^32 is a
// bijection on 32-bit keys (Fibonacci hashing).
const idHashMul = 0x9E3779B9

// idHash returns key's 32-bit hash, key × 2^32/φ. Its top logN bits are
// key's home position, and idHash << logN is key's tag.
func idHash(key uint32) uint32 { return key * idHashMul }

// Len returns the number of entries.
func (t *IDTable[T]) Len() int { return len(t.slab) }

// KeyAt returns the node id in slot i, 0 <= i < Len().
func (t *IDTable[T]) KeyAt(i int) netstack.NodeID { return netstack.NodeID(t.slab[i].key) }

// At returns the value in slot i, 0 <= i < Len().
func (t *IDTable[T]) At(i int) *T { return &t.slab[i].val }

// locate probes for key. It returns the index position the probe stopped
// at, the slab position + 1 of key's entry (0 when key is absent and the
// position is where it would go), and key's tag. The index must not be
// empty.
func (t *IDTable[T]) locate(key uint32) (pos uint32, s uint32, tag uint32) {
	h := idHash(key)
	tag = h << t.logN
	for pos = h >> t.shift; ; pos = (pos + 1) & t.mask {
		x := t.index[pos] ^ tag
		if x == tag {
			return pos, 0, tag
		}
		if x <= t.mask && t.slab[x-1].key == key {
			return pos, x, tag
		}
	}
}

// Get returns the value stored under key, a node id as uint32, or nil. A
// key of 2^31 or more is never stored, so it misses. Get takes the 32-bit
// key rather than a NodeID, and is locate and idHash written out, so that
// it stays within the inliner's budget (make inline checks it; cost 75 of
// 80 at its shape instantiation, and 81 with a NodeID argument converted
// inside): Get is the per-message lookup (SRP's route on every RREQ heard
// and data packet forwarded, OLSR's neighbor on every TC heard), the other
// operations are not. x = slot ^ tag is tag exactly at an empty slot (an
// entry's position bits are never 0), and it is at most mask, the slab
// position + 1, exactly when the tags match.
func (t *IDTable[T]) Get(key uint32) *T {
	h := key * idHashMul // idHash(key)
	tag := h << t.logN
	for i := h >> t.shift; len(t.index) > 0; i++ {
		x := t.index[i&t.mask] ^ tag
		if x == tag {
			break
		}
		if x <= t.mask {
			if e := &t.slab[x-1]; e.key == key {
				return &e.val
			}
		}
	}
	return nil
}

// Put returns the value stored under node id id, first adding a zero
// value in slot Len() if there is none; fresh reports whether it was
// added. It panics if id is outside [0, 2^31).
func (t *IDTable[T]) Put(id netstack.NodeID) (v *T, fresh bool) {
	if uint64(id) > maxIDKey {
		panic(fmt.Sprintf("rcommon: IDTable key %d is not a node id in [0, 2^31)", id))
	}
	key := uint32(id)
	if 4*(len(t.slab)+1) > 3*len(t.index) {
		if v := t.Get(key); v != nil {
			return v, false
		}
		t.grow()
	}
	pos, s, tag := t.locate(key)
	if s != 0 {
		return &t.slab[s-1].val, false
	}
	t.slab = append(t.slab, idEntry[T]{key: key})
	t.index[pos] = tag | uint32(len(t.slab))
	return &t.slab[len(t.slab)-1].val, true
}

// grow doubles the index and re-enters every slot.
func (t *IDTable[T]) grow() {
	n := max(2*len(t.index), idTableMinIndex)
	t.index = make([]uint32, n)
	t.mask = uint32(n - 1)
	t.logN = uint8(bits.TrailingZeros(uint(n)))
	t.shift = 32 - t.logN
	for s := range t.slab {
		h := idHash(t.slab[s].key)
		i := h >> t.shift
		for t.index[i] != 0 {
			i = (i + 1) & t.mask
		}
		t.index[i] = h<<t.logN | uint32(s+1)
	}
}

// Delete removes node id id and reports whether it was present. The last
// slot's entry moves into the freed slot. An id outside [0, 2^31) is
// never present.
func (t *IDTable[T]) Delete(id netstack.NodeID) bool {
	if len(t.index) == 0 || uint64(id) > maxIDKey {
		return false
	}
	i, s, _ := t.locate(uint32(id))
	if s == 0 {
		return false
	}
	slot, last := int(s)-1, len(t.slab)-1
	if slot != last {
		moved, _, tag := t.locate(t.slab[last].key)
		t.index[moved] = tag | s
		t.slab[slot] = t.slab[last]
	}
	t.slab[last] = idEntry[T]{} // drop what the value referenced
	t.slab = t.slab[:last]

	// Backward-shift deletion: close the hole at i by pulling back the
	// next entry of the probe run that sits at least as far from its home
	// as from the hole, which opens a hole where it was; stop at a gap.
	// A tag does not hold its entry's home, so the slab key is rehashed.
	for j := (i + 1) & t.mask; t.index[j] != 0; j = (j + 1) & t.mask {
		h := idHash(t.slab[t.index[j]&t.mask-1].key) >> t.shift
		if (j-h)&t.mask >= (j-i)&t.mask {
			t.index[i] = t.index[j]
			i = j
		}
	}
	t.index[i] = 0
	return true
}
