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
	const full = 280 // entries; needs a 1024-slot index, seven doublings from 8
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

func TestIDTableZeroValue(t *testing.T) {
	var tab IDTable[idVal]
	if tab.Len() != 0 || tab.Get(0) != nil || tab.Delete(0) {
		t.Fatal("zero table is not empty")
	}
}

// FuzzIDTable reads its input as (op, key) byte pairs over 256 keys and
// holds the table to the map after every one. The seeds fill the table
// past several growths, empty it front to back and back to front, hammer
// one probe run, and refill a Reset table into its kept storage.
func FuzzIDTable(f *testing.F) {
	var fill, drainUp, drainDown, churn []byte
	for i := 0; i < 256; i++ {
		fill = append(fill, 0, byte(i))
		drainUp = append(drainUp, 2, byte(i))
		drainDown = append(drainDown, 2, byte(255-i))
		churn = append(churn, 0, byte(i%9), 2, byte((i+4)%9), 3, byte(i%9))
	}
	f.Add(fill)
	f.Add(append(append([]byte{}, fill...), drainUp...))
	f.Add(append(append([]byte{}, fill...), drainDown...))
	f.Add(churn)
	f.Add(append(append(append(append([]byte{}, fill...), 4, 0), drainDown[:64]...), fill...))
	keys := idKeys(256)

	f.Fuzz(func(t *testing.T, ops []byte) {
		m := newIDModel(t)
		for i := 0; i+1 < len(ops); i += 2 {
			key := keys[ops[i+1]]
			switch ops[i] % 5 {
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
