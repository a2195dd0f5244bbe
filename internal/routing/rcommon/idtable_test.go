package rcommon

import (
	"math"
	"math/rand"
	"strings"
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
	ref  map[netstack.NodeID]idVal
	step uint64
}

func newIDModel(t *testing.T) *idModel {
	return &idModel{t: t, ref: make(map[netstack.NodeID]idVal)}
}

func (m *idModel) put(key netstack.NodeID) {
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

func (m *idModel) del(key netstack.NodeID) {
	m.step++
	_, had := m.ref[key]
	if got := m.tab.Delete(key); got != had {
		m.t.Fatalf("step %d: Delete(%#x) = %v, want %v", m.step, key, got, had)
	}
	delete(m.ref, key)
	m.check(key)
}

// check compares presence and value of key, Len, and every slot.
func (m *idModel) check(key netstack.NodeID) {
	m.step++
	want, had := m.ref[key]
	if got := m.tab.Get(uint32(key)); (got != nil) != had || (had && *got != want) {
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
		if m.tab.Get(uint32(k)) != v {
			m.t.Fatalf("step %d: Get(%#x) does not find slot %d", m.step, k, i)
		}
	}
}

// idKeys returns n distinct node ids: dense small ones, as in a network,
// and ones from the top of the id range. The boundary ids 0 and 2^31-1
// are the first two.
func idKeys(n int) []netstack.NodeID {
	keys := make([]netstack.NodeID, n)
	for i := range keys {
		if i%2 == 0 {
			keys[i] = netstack.NodeID(i * 13) // ids up to a few thousand
		} else {
			keys[i] = math.MaxInt32 - netstack.NodeID(i/2*7919)
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
	filling, peak, emptied := true, 0, 0
	for s := 0; s < steps; s++ {
		key := keys[rng.Intn(len(keys))]
		// Fill with random keys until nearly all are in, then empty the
		// table by draining occupied slots one by one, and go round.
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
		case n >= full:
			filling = false
		case n == 0:
			filling = true
			emptied++
		}
	}
	if peak < full || emptied < 2 {
		t.Fatalf("walk reached %d entries and emptied the table %d times; want >= %d and >= 2",
			peak, emptied, full)
	}
	if m.tab.Get(1<<31) != nil || m.tab.Delete(1<<40) {
		t.Fatal("a key never put is present")
	}
}

// TestIDTablePutRefusesNonIDs pins Put's panic on a key that is not a
// node id: truncated to 32 bits, 1<<32 + 5 would alias 5 and -1 would
// take a key Get could find. Delete reports such a key absent and leaves
// the id it would alias in place.
func TestIDTablePutRefusesNonIDs(t *testing.T) {
	var tab IDTable[idVal]
	*must(tab.Put(5)) = idVal{a: 5}
	for _, id := range []netstack.NodeID{-1, math.MinInt64, 1 << 31, 1<<32 + 5} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "not a node id") {
					t.Errorf("Put(%d): panic %q, want one naming the key as no node id", id, msg)
				}
			}()
			tab.Put(id)
		}()
		if tab.Delete(id) {
			t.Errorf("Delete(%d) found an entry", id)
		}
	}
	if tab.Len() != 1 || tab.KeyAt(0) != 5 || tab.Get(5).a != 5 {
		t.Fatalf("after the refused keys the table holds %d entries, slot 0 %d; want only 5", tab.Len(), tab.KeyAt(0))
	}
}

// must returns Put's value.
func must(v *idVal, _ bool) *idVal { return v }

// keysWithHashes returns the first n node ids among the keys whose
// idHash is hash(0), hash(1), …: the key with hash h is h times the
// multiplier's inverse mod 2^32, and about half of those keys are 2^31 or
// more, which no table stores.
func keysWithHashes(n int, hash func(i uint32) uint32) []netstack.NodeID {
	inv := uint32(idHashMul) // Newton's iteration for idHashMul⁻¹ mod 2^32
	for range 5 {
		inv *= 2 - idHashMul*inv
	}
	var keys []netstack.NodeID
	for i := uint32(0); len(keys) < n; i++ {
		if i == 1<<16 {
			panic("keysWithHashes: too few hashes map to node ids")
		}
		if k := hash(i) * inv; k <= maxIDKey {
			keys = append(keys, netstack.NodeID(k))
		}
	}
	return keys
}

// collidingKeys returns n distinct node ids that crowd an index of up to
// 512 slots. The top three hash bits pick one of eight homes and the next
// six are zero, so at every such size the keys share eight homes; the
// low 23 bits are a tag class, shared by four keys at four different
// homes (the class's keys at the other four are 2^31 or more). A probe
// run that crosses from one home into the next meets tags of its own
// class, which only the slab's key tells apart.
func collidingKeys(n int) []netstack.NodeID {
	return keysWithHashes(n, func(i uint32) uint32 { return i&7<<29 | i>>3 })
}

// TestIDTableTagCollisions drives keys that defeat the index's shortcuts:
// keys sharing one home slot with different tags, keys with one tag at
// homes inside that home's probe run, and keys with equal tags at
// different homes. The hash is a bijection on 32-bit keys, so no two keys
// share both home and tag; a tag match at a slot that is not the probed
// key's home is what only the slab tells apart, and a probe that starts
// inside the run passes every tag-sharing key placed after it. Deleting
// from the front of the merged probe run makes Delete's backward shift
// walk across mixed tags.
func TestIDTableTagCollisions(t *testing.T) {
	const run = 16 << 27 // home 16 of a 32-slot index: the top five hash bits
	// One home at <= 256 slots, distinct tags.
	home := keysWithHashes(6, func(i uint32) uint32 { return run | i<<8 })
	// One tag at 32 slots (the low 27 hash bits), homes 16 to 21, which
	// home's run covers; the last is never put.
	spill := keysWithHashes(4, func(i uint32) uint32 { return (run + i<<27) | 0x1_2345 })
	spill, absent := spill[:3], spill[3]
	// Distinct homes, one tag at >= 16 slots.
	tag := keysWithHashes(4, func(i uint32) uint32 { return (8+i)<<28 | 0x0ab_cdf2 })
	keys := append(append(append([]netstack.NodeID{}, home...), spill...), tag...)

	var probe IDTable[idVal]
	for _, k := range keys {
		probe.Put(k)
	}
	if len(probe.index) != 32 {
		t.Fatalf("%d keys take a %d-slot index, want 32", len(keys), len(probe.index))
	}
	homeOf := func(k netstack.NodeID) uint32 { return idHash(uint32(k)) >> probe.shift }
	tagOf := func(k netstack.NodeID) uint32 { return idHash(uint32(k)) << probe.logN }
	h0 := homeOf(home[0])
	for i, k := range home {
		if homeOf(k) != h0 {
			t.Fatalf("key %#x homes at %d, want %d", k, homeOf(k), h0)
		}
		for _, k2 := range home[:i] {
			if tagOf(k) == tagOf(k2) {
				t.Fatalf("keys %#x and %#x share a tag", k, k2)
			}
		}
	}
	for i, k := range append(spill[1:], absent) {
		if tagOf(k) != tagOf(spill[0]) || homeOf(k) <= homeOf(spill[i]) || homeOf(k)-h0 >= uint32(len(home)) {
			t.Fatalf("key %#x: tag %#x, home %d; want tag %#x at a home in (%d, %d)",
				k, tagOf(k), homeOf(k), tagOf(spill[0]), homeOf(spill[i]), h0+uint32(len(home)))
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

	m := newIDModel(t)
	for _, k := range keys {
		m.put(k)
	}
	m.check(absent)
	// Delete the front of the run (the first key put at the shared home),
	// then each group's middle, then refill: every step is held to the map.
	for _, k := range []netstack.NodeID{home[0], spill[1], tag[1], home[2], spill[0], tag[0]} {
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
// probe run, refill a partly drained table, and fill and churn the
// colliding keys.
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
	f.Add(append(append(append([]byte{}, fill...), drainDown[:64]...), fill...))
	f.Add(collide)
	keys, colliding := idKeys(256), collidingKeys(256)

	f.Fuzz(func(t *testing.T, ops []byte) {
		m := newIDModel(t)
		for i := 0; i+1 < len(ops); i += 2 {
			key := keys[ops[i+1]]
			if ops[i]&0x80 != 0 {
				key = colliding[ops[i+1]]
			}
			switch ops[i] & 0x7f % 4 {
			case 0, 1:
				m.put(key)
			case 2:
				m.del(key)
			default:
				m.check(key)
			}
		}
	})
}
