package srp

import (
	"math"
	"testing"
	"testing/quick"

	"slr/internal/core"
	"slr/internal/frac"
	"slr/internal/label"
)

func ord(sn label.SeqNo, num, den uint32) label.Order {
	if num == 0 {
		return label.Order{SN: sn, FD: frac.Zero}
	}
	return label.Order{SN: sn, FD: frac.MustNew(num, den)}
}

func TestNewOrderCaseII(t *testing.T) {
	// Algorithm 1 line 5: snA < sn? and snC < sn? -> O? + 1/1.
	g := newOrder(ord(1, 1, 2), ord(1, 2, 3), ord(2, 0, 1), core.FracSet{})
	if g != ord(2, 1, 2) {
		t.Fatalf("g = %v, want (2, 1/2)", g)
	}
	// Unassigned node, unassigned cache.
	g = newOrder(label.Unassigned, label.Unassigned, ord(1, 0, 1), core.FracSet{})
	if g != ord(1, 1, 2) {
		t.Fatalf("g = %v, want (1, 1/2)", g)
	}
}

func TestNewOrderCaseIII(t *testing.T) {
	// Line 7: snA < sn?, snC == sn? -> mediant of C and O? fractions.
	g := newOrder(ord(1, 1, 2), ord(2, 2, 3), ord(2, 1, 2), core.FracSet{})
	if g != ord(2, 3, 5) {
		t.Fatalf("g = %v, want (2, 3/5)", g)
	}
}

func TestNewOrderCaseIV(t *testing.T) {
	// Line 10: snA == sn?, C ≺ O_A -> keep own label.
	own := ord(2, 2, 3)
	g := newOrder(own, ord(2, 3, 4), ord(2, 1, 2), core.FracSet{})
	if g != own {
		t.Fatalf("g = %v, want keep %v", g, own)
	}
}

func TestNewOrderCaseV(t *testing.T) {
	// Line 12: snA == sn?, C not ≺ O_A -> split C with O?.
	g := newOrder(ord(2, 2, 3), ord(2, 2, 3), ord(2, 1, 2), core.FracSet{})
	if g != ord(2, 3, 5) {
		t.Fatalf("g = %v, want (2, 3/5)", g)
	}
}

func TestNewOrderInfeasibleSeqno(t *testing.T) {
	// snA > sn?: Case I — unordered result.
	g := newOrder(ord(3, 1, 2), label.Unassigned, ord(2, 0, 1), core.FracSet{})
	if !g.IsUnassigned() {
		t.Fatalf("g = %v, want unassigned", g)
	}
}

func TestNewOrderOverflowReturnsUnordered(t *testing.T) {
	big := label.Order{SN: 2, FD: frac.F{Num: math.MaxUint32 - 2, Den: math.MaxUint32 - 1}}
	adv := label.Order{SN: 2, FD: frac.F{Num: 1, Den: math.MaxUint32}}
	g := newOrder(ord(1, 1, 2), big, adv, core.FracSet{})
	if !g.IsUnassigned() {
		t.Fatalf("g = %v, want unassigned on overflow", g)
	}
}

func TestNewOrderFactTwoViolation(t *testing.T) {
	// If the cached C does not precede the advertisement (unstable
	// network), no in-order label exists; must return unordered.
	g := newOrder(ord(1, 1, 2), ord(2, 1, 3), ord(2, 1, 2), core.FracSet{})
	if !g.IsUnassigned() {
		t.Fatalf("g = %v, want unassigned when C does not precede O?", g)
	}
}

func TestNewOrderFareyProducesSimplerFractions(t *testing.T) {
	c, adv := ord(2, 7, 9), ord(2, 5, 8)
	med := newOrder(ord(1, 1, 2), c, adv, core.FracSet{})
	fay := newOrder(ord(1, 1, 2), c, adv, core.FareySet{})
	if med.IsUnassigned() || fay.IsUnassigned() {
		t.Fatal("unexpected unordered result")
	}
	if fay.FD.Den > med.FD.Den {
		t.Fatalf("farey %v has larger denominator than mediant %v", fay.FD, med.FD)
	}
	// The result sits strictly between: below C's fraction, above the
	// advertised one (c ≺ g ≺ adv in Definition 5's order).
	if !c.Precedes(fay) || !fay.Precedes(adv) {
		t.Fatalf("farey %v not between %v and %v", fay, c, adv)
	}
}

func TestNewOrderMaintainsOrderProperty(t *testing.T) {
	// For any feasible advertisement and cached ordering satisfying
	// Facts 1 and 2, a finite result must satisfy Eqs. 3–5:
	// adv ≺ G, G ⪯ own, G "≺-compatible" with C (C ≺ G or G = own ≺ C
	// ... precisely: Eq. 4 requires C ≺ G unless at terminus).
	mk := func(sn uint8, n, d uint32) label.Order {
		d = d%997 + 2
		n = n % d
		if n == 0 {
			n = 1
		}
		return label.Order{SN: label.SeqNo(sn%4 + 1), FD: frac.MustNew(n, d)}
	}
	prop := func(a1 uint8, a2, a3 uint32, b1 uint8, b2, b3 uint32, c1 uint8, c2, c3 uint32) bool {
		own, c, adv := mk(a1, a2, a3), mk(b1, b2, b3), mk(c1, c2, c3)
		if !own.Precedes(adv) || !c.Precedes(adv) {
			return true // preconditions (Facts 1–2) not met
		}
		g := newOrder(own, c, adv, core.FracSet{})
		if g.IsUnassigned() {
			return true // overflow path is always allowed
		}
		// Eq. 5: the advertised label stays strictly below G.
		if !g.Precedes(adv) {
			return false
		}
		// Eq. 3: labels are non-increasing — G equals the old label or
		// sits strictly below it in the DAG.
		if !(g.Equal(own) || own.Precedes(g)) {
			return false
		}
		// Eq. 4: G stays strictly below the cached request minimum.
		if !c.Precedes(g) {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}

// FuzzNewOrderDefinition1 holds Algorithm 1 to Definition 1 as core
// states it: for a node ordering oA, a cached request ordering c and an
// advertisement adv that pass setRoute's feasibility guard, every finite
// newOrder result, in each label set the split key selects (splitSets),
// satisfies Eqs. 3–5 (core.CheckOrder; successor pruning is the caller's,
// so Eq. 6 is not asked). A denominator of 0 stands for Unassigned; sequence numbers run
// 0–3 so that they often tie. The seed is a request at a larger sequence
// number than the advertisement's, which a split that compares fractions
// alone answers with a label at the advertisement's sequence number that
// is not below the request (Eq. 4).
func FuzzNewOrderDefinition1(f *testing.F) {
	f.Add(uint8(0), uint32(0), uint32(0), uint8(2), uint32(9), uint32(11), uint8(1), uint32(0), uint32(5))
	f.Add(uint8(1), uint32(1), uint32(2), uint8(2), uint32(2), uint32(3), uint8(2), uint32(1), uint32(2))
	f.Add(uint8(2), uint32(2), uint32(3), uint8(2), uint32(2), uint32(3), uint8(2), uint32(1), uint32(2))
	f.Add(uint8(1), uint32(0), uint32(0), uint8(0), uint32(0), uint32(0), uint8(1), uint32(5), uint32(8))
	mk := func(sn uint8, num, den uint32) label.Order {
		if den == 0 {
			return label.Unassigned
		}
		return label.Order{SN: label.SeqNo(sn % 4), FD: frac.F{Num: num % den, Den: den}}
	}
	f.Fuzz(func(t *testing.T, aSN uint8, aNum, aDen uint32, cSN uint8, cNum, cDen uint32, vSN uint8, vNum, vDen uint32) {
		oA, c, adv := mk(aSN, aNum, aDen), mk(cSN, cNum, cDen), mk(vSN, vNum, vDen)
		if adv.FD == frac.One || (!oA.IsUnassigned() && !oA.Precedes(adv)) {
			return // setRoute refuses the advertisement before newOrder
		}
		for split, set := range splitSets {
			g := newOrder(oA, c, adv, set)
			if !g.Finite() {
				continue
			}
			if err := core.CheckOrder(core.OrderSet{}, g, oA, c, adv, nil); err != nil {
				t.Fatalf("split %d: newOrder(oA %v, c %v, adv %v) = %v: %v", split, oA, c, adv, g, err)
			}
		}
	})
}

func TestLie(t *testing.T) {
	tests := []struct{ in, want frac.F }{
		{frac.MustNew(2, 3), frac.MustNew(1, 2)},
		{frac.MustNew(5, 8), frac.MustNew(4, 7)},
		{frac.MustNew(1, 2), frac.MustNew(9999, 19999)},
		{frac.Zero, frac.Zero},
		{frac.One, frac.One},
	}
	for _, tt := range tests {
		if got := lie(tt.in); got != tt.want {
			t.Errorf("lie(%v) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestLieIsAlwaysBelow(t *testing.T) {
	prop := func(n, d uint32) bool {
		d = d%100000 + 2
		n = n % d
		if n == 0 {
			n = 1
		}
		f := frac.MustNew(n, d)
		l := lie(f)
		return l.Less(f) && l.Valid()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 10000}); err != nil {
		t.Fatal(err)
	}
}

func TestLieOverflowGuard(t *testing.T) {
	f := frac.F{Num: 1, Den: math.MaxUint32 - 1}
	if got := lie(f); got != f {
		t.Fatalf("lie near overflow = %v, want unchanged", got)
	}
}
