package rcommon

import "math/bits"

// IDTable maps uint64 keys — a node id, or an (originator, id) pair packed
// into one uint64, originator in the high 32 bits — to values of T held by
// value in one flat slab. An open-addressed index of int32 slab positions
// (one multiplicative hash, linear probing) finds an entry, so a table
// costs no heap object per entry and a lookup hashes nothing but one
// multiply. The zero value is an empty table.
//
// Pointer validity: a *T returned by Get, Put or At points into the slab.
// It is valid until the next Put, Delete or Reset on the same table — Put
// may move the slab to grow it, Delete moves the last entry into the freed
// slot — and must not be kept, or captured by a closure, past any of them.
//
// Order: slots 0…Len()-1 are dense. Their order is a function of the
// Put/Delete history alone, never of hashing, so a walk is deterministic;
// it is not sorted. To delete while walking, walk from Len()-1 down: the
// entry Delete swaps into slot i is one the walk has already visited.
type IDTable[T any] struct {
	slab  []idEntry[T]
	index []int32 // 0 = empty, else slab position + 1; len is a power of two
	shift uint    // 64 - log2(len(index))
}

type idEntry[T any] struct {
	key uint64
	val T
}

// idTableMinIndex is the index size of a table's first entry. The index
// doubles whenever the slab would fill more than half of it.
const idTableMinIndex = 8

// home is the index position key hashes to (Fibonacci hashing: the top
// bits of key × 2^64/φ).
func (t *IDTable[T]) home(key uint64) int {
	return int((key * 0x9E3779B97F4A7C15) >> t.shift)
}

// Len returns the number of entries.
func (t *IDTable[T]) Len() int { return len(t.slab) }

// KeyAt returns the key in slot i, 0 <= i < Len().
func (t *IDTable[T]) KeyAt(i int) uint64 { return t.slab[i].key }

// At returns the value in slot i, 0 <= i < Len().
func (t *IDTable[T]) At(i int) *T { return &t.slab[i].val }

// locate probes for key. It returns the index position the probe stopped
// at and what that position holds: the slab position + 1 of key's entry,
// or 0 when key is absent and the position is where it would go. The
// index must not be empty.
func (t *IDTable[T]) locate(key uint64) (pos int, s int32) {
	mask := len(t.index) - 1
	for pos = t.home(key); ; pos = (pos + 1) & mask {
		s = t.index[pos]
		if s == 0 || t.slab[s-1].key == key {
			return pos, s
		}
	}
}

// Get returns the value stored under key, or nil. It is locate written
// out, so that it stays within the inliner's budget: Get is the flood hot
// path (route and topology lookups on every RREQ and TC heard), the other
// operations are not.
func (t *IDTable[T]) Get(key uint64) *T {
	if len(t.index) == 0 {
		return nil
	}
	mask := len(t.index) - 1
	for i := t.home(key); ; i = (i + 1) & mask {
		s := t.index[i]
		if s == 0 {
			return nil
		}
		if e := &t.slab[s-1]; e.key == key {
			return &e.val
		}
	}
}

// Put returns the value stored under key, first adding a zero value in
// slot Len() if there is none; fresh reports whether it was added.
func (t *IDTable[T]) Put(key uint64) (v *T, fresh bool) {
	if 2*(len(t.slab)+1) > len(t.index) {
		t.grow()
	}
	pos, s := t.locate(key)
	if s != 0 {
		return &t.slab[s-1].val, false
	}
	t.slab = append(t.slab, idEntry[T]{key: key})
	t.index[pos] = int32(len(t.slab))
	return &t.slab[len(t.slab)-1].val, true
}

// Reset removes every entry and keeps the slab's and the index's storage,
// so a table emptied and refilled to the same size allocates nothing.
func (t *IDTable[T]) Reset() {
	clear(t.slab) // drop what the values referenced
	t.slab = t.slab[:0]
	clear(t.index)
}

// grow doubles the index and re-enters every slot.
func (t *IDTable[T]) grow() {
	n := max(2*len(t.index), idTableMinIndex)
	t.index = make([]int32, n)
	t.shift = uint(64 - bits.TrailingZeros(uint(n)))
	for s := range t.slab {
		i := t.home(t.slab[s].key)
		for t.index[i] != 0 {
			i = (i + 1) & (n - 1)
		}
		t.index[i] = int32(s + 1)
	}
}

// Delete removes key and reports whether it was present. The last slot's
// entry moves into the freed slot.
func (t *IDTable[T]) Delete(key uint64) bool {
	if len(t.index) == 0 {
		return false
	}
	i, s := t.locate(key)
	if s == 0 {
		return false
	}
	slot, last := int(s)-1, len(t.slab)-1
	if slot != last {
		moved, _ := t.locate(t.slab[last].key)
		t.index[moved] = s
		t.slab[slot] = t.slab[last]
	}
	t.slab[last] = idEntry[T]{} // drop what the value referenced
	t.slab = t.slab[:last]

	// Backward-shift deletion: close the hole at i by pulling back the
	// next entry of the probe run that sits at least as far from its home
	// as from the hole, which opens a hole where it was; stop at a gap.
	mask := len(t.index) - 1
	for j := (i + 1) & mask; t.index[j] != 0; j = (j + 1) & mask {
		h := t.home(t.slab[t.index[j]-1].key)
		if (j-h)&mask >= (j-i)&mask {
			t.index[i] = t.index[j]
			i = j
		}
	}
	t.index[i] = 0
	return true
}
