package rcommon

import (
	"math/rand"
	"testing"

	"slr/internal/netstack"
)

type idVal struct {
	a uint64
	b int32
}

// idModel drives an IDTable and a map with the same operations and
// compares them after each one.
type idModel struct {
	t    *testing.T
	tab  IDTable[idVal]
	ref  map[uint64]idVal
	step uint64
}

func newIDModel(t *testing.T) *idModel {
	return &idModel{t: t, ref: make(map[uint64]idVal)}
}

func (m *idModel) put(key uint64) {
	m.step++
	v, fresh := m.tab.Put(key)
	old, had := m.ref[key]
	if fresh == had {
		m.t.Fatalf("step %d: Put(%#x) fresh = %v, map had it = %v", m.step, key, fresh, had)
	}
	if *v != old { // a fresh entry must be the zero value
		m.t.Fatalf("step %d: Put(%#x) = %+v, want %+v", m.step, key, *v, old)
	}
	*v = idVal{a: m.step, b: int32(key)}
	m.ref[key] = *v
	m.check(key)
}

func (m *idModel) del(key uint64) {
	m.step++
	_, had := m.ref[key]
	if got := m.tab.Delete(key); got != had {
		m.t.Fatalf("step %d: Delete(%#x) = %v, want %v", m.step, key, got, had)
	}
	delete(m.ref, key)
	m.check(key)
}

// reset empties the table and the map, then checks key.
func (m *idModel) reset(key uint64) {
	m.step++
	m.tab.Reset()
	clear(m.ref)
	m.check(key)
}

// check compares presence and value of key, Len, and every slot.
func (m *idModel) check(key uint64) {
	m.step++
	want, had := m.ref[key]
	if got := m.tab.Get(key); (got != nil) != had || (had && *got != want) {
		m.t.Fatalf("step %d: Get(%#x) = %v, want %+v present %v", m.step, key, got, want, had)
	}
	if m.tab.Len() != len(m.ref) {
		m.t.Fatalf("step %d: Len = %d, want %d", m.step, m.tab.Len(), len(m.ref))
	}
	// Every slot holds a key of the map with the map's value and is what
	// Get finds, so with equal lengths the two hold the same entries.
	for i := 0; i < m.tab.Len(); i++ {
		k, v := m.tab.KeyAt(i), m.tab.At(i)
		if want, ok := m.ref[k]; !ok || *v != want {
			m.t.Fatalf("step %d: slot %d holds %#x = %+v, map has %+v present %v", m.step, i, k, *v, want, ok)
		}
		if m.tab.Get(k) != v {
			m.t.Fatalf("step %d: Get(%#x) does not find slot %d", m.step, k, i)
		}
	}
}

// idKeys returns n distinct keys of both shapes SRP uses: plain node ids
// and (originator, id) pairs packed like dupKey.
func idKeys(n int) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		if i%2 == 0 {
			keys[i] = uint64(i * 13) // ids up to a few thousand
		} else {
			keys[i] = dupKey(netstack.NodeID(i*7%5000), uint32(i/8+1))
		}
	}
	return keys
}

func TestIDTableMatchesMap(t *testing.T) {
	const steps = 200_000
	keys := idKeys(320)
	rng := rand.New(rand.NewSource(21))
	m := newIDModel(t)
	const full = 280 // entries; needs a 512-slot index, six doublings from 8
	filling, peak, emptied, resets := true, 0, 0, 0
	for s := 0; s < steps; s++ {
		key := keys[rng.Intn(len(keys))]
		// Fill with random keys until nearly all are in, then empty the
		// table — every other round by draining occupied slots one by one,
		// otherwise by one Reset, whose kept storage the next round
		// refills — and go round.
		r := rng.Intn(100)
		switch {
		case r < 10:
			m.check(key)
		case filling && r < 95, !filling && r < 30:
			m.put(key)
		case filling:
			m.del(key)
		default:
			m.del(m.tab.KeyAt(rng.Intn(m.tab.Len())))
		}
		n := m.tab.Len()
		peak = max(peak, n)
		switch {
		case n >= full && emptied%2 == 1:
			m.reset(key)
			resets++
			emptied++
		case n >= full:
			filling = false
		case n == 0:
			filling = true
			emptied++
		}
	}
	if peak < full || emptied < 2 || resets < 2 {
		t.Fatalf("walk reached %d entries and emptied the table %d times, %d by Reset; want >= %d, >= 2 and >= 2",
			peak, emptied, resets, full)
	}
	if m.tab.Get(1<<40) != nil || m.tab.Delete(1<<40) {
		t.Fatal("a key never put is present")
	}
}

// keyWithHash returns a key whose idHash is h: the key whose product with
// the hash multiplier has h as its top half and lo as its bottom half.
// Keys built with the same h and different lo collide in the index at
// every size: same home, same tag.
func keyWithHash(h, lo uint32) uint64 {
	const mul = 0x9E3779B97F4A7C15
	inv := uint64(mul) // Newton's iteration for mul⁻¹ mod 2^64
	for i := 0; i < 5; i++ {
		inv *= 2 - mul*inv
	}
	return (uint64(h)<<32 | uint64(lo)) * inv
}

// collidingKeys returns n distinct keys that crowd an index of up to 512
// slots: eight homes (the top three hash bits), four tags at every such
// size (the bottom two hash bits), and n/32 keys per (home, tag) pair
// that only the slab's key tells apart.
func collidingKeys(n int) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = keyWithHash(uint32(i&7)<<29|uint32(i>>3&3), uint32(i))
	}
	return keys
}

// TestIDTableTagCollisions drives keys that defeat the index's shortcuts:
// keys sharing one home slot with different tags, keys with the same home
// and tag that only the slab tells apart, and keys with equal tags at
// different homes. Deleting from the front of their merged probe run makes
// Delete's backward shift walk across mixed tags.
func TestIDTableTagCollisions(t *testing.T) {
	var same, home, tag []uint64
	for i := uint32(0); i < 4; i++ { // one home, one tag
		same = append(same, keyWithHash(0x8001_2345, i))
	}
	for i := uint32(0); i < 6; i++ { // one home at <= 256 slots, distinct tags
		home = append(home, keyWithHash(0x8000_0000|i<<8, 0))
	}
	for i := uint32(0); i < 4; i++ { // distinct homes, one tag at >= 16 slots
		tag = append(tag, keyWithHash((8+i)<<28|0x0ab_cdef, 0))
	}
	keys := append(append(append([]uint64{}, same...), home...), tag...)

	var probe IDTable[idVal]
	for _, k := range keys {
		probe.Put(k)
	}
	if len(probe.index) != 32 {
		t.Fatalf("%d keys take a %d-slot index, want 32", len(keys), len(probe.index))
	}
	homeOf := func(k uint64) uint32 { return idHash(k) >> probe.shift }
	tagOf := func(k uint64) uint32 { return idHash(k) << probe.logN }
	for _, k := range append(append([]uint64{}, same[1:]...), home...) {
		if homeOf(k) != homeOf(same[0]) {
			t.Fatalf("key %#x homes at %d, want %d", k, homeOf(k), homeOf(same[0]))
		}
	}
	for _, k := range same[1:] {
		if tagOf(k) != tagOf(same[0]) {
			t.Fatalf("key %#x has tag %#x, want %#x", k, tagOf(k), tagOf(same[0]))
		}
	}
	for i, k := range home {
		for _, k2 := range home[:i] {
			if tagOf(k) == tagOf(k2) {
				t.Fatalf("keys %#x and %#x share a tag", k, k2)
			}
		}
	}
	for i, k := range tag {
		for _, k2 := range tag[:i] {
			if tagOf(k) != tagOf(k2) || homeOf(k) == homeOf(k2) {
				t.Fatalf("keys %#x and %#x: tags %#x %#x, homes %d %d; want equal tags, distinct homes",
					k, k2, tagOf(k), tagOf(k2), homeOf(k), homeOf(k2))
			}
		}
	}
	// A key that matches same's home and tag but was never put.
	absent := keyWithHash(0x8001_2345, 99)

	m := newIDModel(t)
	for _, k := range keys {
		m.put(k)
	}
	m.check(absent)
	// Delete the front of the run (the first key put at the shared home),
	// then each group's middle, then refill: every step is held to the map.
	for _, k := range []uint64{same[0], home[2], tag[1], same[2], home[0], tag[0]} {
		m.del(k)
		m.check(absent)
	}
	for _, k := range keys {
		m.put(k)
	}
	rng := rand.New(rand.NewSource(41))
	for step := 0; step < 5000; step++ {
		k := keys[rng.Intn(len(keys))]
		switch rng.Intn(3) {
		case 0:
			m.put(k)
		case 1:
			m.del(k)
		default:
			m.check(absent)
		}
	}
}

// TestIDTableLoad pins the index to at most 3/4 load: after n Puts of
// distinct keys it is the smallest power of two >= 8 that holds n at that
// load.
func TestIDTableLoad(t *testing.T) {
	var tab IDTable[idVal]
	want := idTableMinIndex
	for n, k := range idKeys(5000) {
		if _, fresh := tab.Put(k); !fresh {
			t.Fatalf("key %#x put twice", k)
		}
		if 4*(n+1) > 3*want {
			want *= 2
		}
		if len(tab.index) != want {
			t.Fatalf("after %d Puts the index has %d slots, want %d", n+1, len(tab.index), want)
		}
		// A Put of a present key never grows the index.
		tab.Put(k)
		if len(tab.index) != want {
			t.Fatalf("re-putting a present key grew the index to %d slots", len(tab.index))
		}
	}
}

func TestIDTableZeroValue(t *testing.T) {
	var tab IDTable[idVal]
	if tab.Len() != 0 || tab.Get(0) != nil || tab.Delete(0) {
		t.Fatal("zero table is not empty")
	}
}

// FuzzIDTable reads its input as (op, key) byte pairs over 256 keys and
// holds the table to the map after every one; an op byte with its top bit
// set picks from collidingKeys instead. The seeds fill the table past
// several growths, empty it front to back and back to front, hammer one
// probe run, refill a Reset table into its kept storage, and fill and
// churn the colliding keys.
func FuzzIDTable(f *testing.F) {
	var fill, drainUp, drainDown, churn, collide []byte
	for i := 0; i < 256; i++ {
		fill = append(fill, 0, byte(i))
		drainUp = append(drainUp, 2, byte(i))
		drainDown = append(drainDown, 2, byte(255-i))
		churn = append(churn, 0, byte(i%9), 2, byte((i+4)%9), 3, byte(i%9))
		collide = append(collide, 0x80, byte(i))
	}
	for i := 0; i < 256; i++ {
		collide = append(collide, 0x82, byte(i*37), 0x83, byte(i*11), 0x80, byte(i*101))
	}
	f.Add(fill)
	f.Add(append(append([]byte{}, fill...), drainUp...))
	f.Add(append(append([]byte{}, fill...), drainDown...))
	f.Add(churn)
	f.Add(append(append(append(append([]byte{}, fill...), 4, 0), drainDown[:64]...), fill...))
	f.Add(collide)
	keys, colliding := idKeys(256), collidingKeys(256)

	f.Fuzz(func(t *testing.T, ops []byte) {
		m := newIDModel(t)
		for i := 0; i+1 < len(ops); i += 2 {
			key := keys[ops[i+1]]
			if ops[i]&0x80 != 0 {
				key = colliding[ops[i+1]]
			}
			switch ops[i] & 0x7f % 5 {
			case 0, 1:
				m.put(key)
			case 2:
				m.del(key)
			case 3:
				m.check(key)
			default:
				m.reset(key)
			}
		}
	})
}
