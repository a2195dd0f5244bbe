package frac

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name     string
		num, den uint32
		wantErr  bool
	}{
		{"zero sentinel", 0, 1, false},
		{"one sentinel", 1, 1, false},
		{"half", 1, 2, false},
		{"proper", 2, 3, false},
		{"unreduced proper", 2, 4, false},
		{"improper", 3, 2, true},
		{"zero den", 1, 0, true},
		{"zero over two", 0, 2, true},
		{"equal non-unit", 5, 5, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := New(tt.num, tt.den)
			if (err != nil) != tt.wantErr {
				t.Errorf("New(%d,%d) err = %v, wantErr %v", tt.num, tt.den, err, tt.wantErr)
			}
		})
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew(3,2) did not panic")
		}
	}()
	MustNew(3, 2)
}

func TestLess(t *testing.T) {
	tests := []struct {
		a, b F
		want bool
	}{
		{Zero, One, true},
		{One, Zero, false},
		{Zero, Zero, false},
		{MustNew(1, 2), MustNew(2, 3), true},
		{MustNew(2, 3), MustNew(1, 2), false},
		{MustNew(1, 2), MustNew(2, 4), false}, // equal values
		{MustNew(2, 4), MustNew(1, 2), false},
		{MustNew(3, 4), MustNew(5, 6), true},
		{Zero, MustNew(1, 1000000000), true},
		{MustNew(999999999, 1000000000), One, true},
	}
	for _, tt := range tests {
		if got := tt.a.Less(tt.b); got != tt.want {
			t.Errorf("%v.Less(%v) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestEqual(t *testing.T) {
	if !MustNew(1, 2).Equal(MustNew(2, 4)) {
		t.Error("1/2 should Equal 2/4")
	}
	if Zero.Equal(One) || One.Equal(Zero) {
		t.Error("0/1 and 1/1 should differ")
	}
}

func TestMediantExamplesFromPaper(t *testing.T) {
	// Figure 1: splitting 1/1 against the reply chain yields
	// 1/2, 2/3, 3/4, 4/5, 5/6.
	m := One
	want := []F{MustNew(1, 2), MustNew(2, 3), MustNew(3, 4), MustNew(4, 5), MustNew(5, 6)}
	reply := Zero
	for i, w := range want {
		got, ok := Mediant(reply, m)
		if !ok {
			t.Fatalf("step %d: unexpected overflow", i)
		}
		if got != w {
			t.Fatalf("step %d: mediant = %v, want %v", i, got, w)
		}
		reply = got
	}
	// Figure 2: node F splits M=2/3 against reply 1/2 -> 3/5;
	// node B splits M=2/3 against reply 3/5 -> 5/8.
	g, ok := Mediant(MustNew(1, 2), MustNew(2, 3))
	if !ok || g != MustNew(3, 5) {
		t.Fatalf("split(1/2,2/3) = %v, want 3/5", g)
	}
	g, ok = Mediant(MustNew(3, 5), MustNew(2, 3))
	if !ok || g != MustNew(5, 8) {
		t.Fatalf("split(3/5,2/3) = %v, want 5/8", g)
	}
}

func TestNext(t *testing.T) {
	n, ok := Zero.Next()
	if !ok || n != MustNew(1, 2) {
		t.Fatalf("Next(0/1) = %v, want 1/2", n)
	}
	n, ok = MustNew(2, 3).Next()
	if !ok || n != MustNew(3, 4) {
		t.Fatalf("Next(2/3) = %v, want 3/4", n)
	}
	if _, ok := One.Next(); ok {
		t.Fatal("One must have no next-element")
	}
}

func TestMediantOverflow(t *testing.T) {
	big := F{Num: math.MaxUint32 - 1, Den: math.MaxUint32}
	if _, ok := Mediant(big, One); ok {
		t.Fatal("expected overflow")
	}
	if !SplitOverflows(big, One) {
		t.Fatal("SplitOverflows = false, want true")
	}
	if SplitOverflows(Zero, One) {
		t.Fatal("SplitOverflows(0/1,1/1) = true, want false")
	}
}

func TestFibonacciBound(t *testing.T) {
	// The paper: "The least upper bound on the number of times we may do
	// this in a 32-bit unsigned integer is found from the Fibonacci
	// sequence to be 45 times." The worst case replaces the two ends of
	// the interval alternately with their mediant, so the components grow
	// like the Fibonacci sequence, the fastest any split chain can.
	lo, hi := Zero, One
	splits := 0
	for {
		m, ok := Mediant(lo, hi)
		if !ok {
			break
		}
		if splits%2 == 0 {
			lo = m
		} else {
			hi = m
		}
		splits++
	}
	if splits < 45 {
		t.Fatalf("worst-case mediant chain = %d, want >= 45", splits)
	}
	if splits > 50 {
		t.Fatalf("worst-case mediant chain = %d, suspiciously large", splits)
	}
}

func TestReduce(t *testing.T) {
	tests := []struct{ in, want F }{
		{MustNew(2, 4), MustNew(1, 2)},
		{MustNew(6, 9), MustNew(2, 3)},
		{MustNew(5, 8), MustNew(5, 8)},
		{Zero, Zero},
		{One, One},
	}
	for _, tt := range tests {
		if got := tt.in.Reduce(); got != tt.want {
			t.Errorf("Reduce(%v) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestBetween(t *testing.T) {
	tests := []struct {
		lo, hi F
		want   F
	}{
		{Zero, One, MustNew(1, 2)},
		{MustNew(1, 2), One, MustNew(2, 3)},
		{Zero, MustNew(1, 2), MustNew(1, 3)},
		{MustNew(1, 3), MustNew(1, 2), MustNew(2, 5)},
		{MustNew(2, 3), MustNew(3, 4), MustNew(5, 7)},
	}
	for _, tt := range tests {
		got, ok := Between(tt.lo, tt.hi)
		if !ok {
			t.Errorf("Between(%v,%v) overflowed", tt.lo, tt.hi)
			continue
		}
		if got != tt.want {
			t.Errorf("Between(%v,%v) = %v, want %v", tt.lo, tt.hi, got, tt.want)
		}
	}
	if _, ok := Between(MustNew(1, 2), MustNew(1, 2)); ok {
		t.Error("Between of equal fractions must fail")
	}
	if _, ok := Between(MustNew(2, 3), MustNew(1, 2)); ok {
		t.Error("Between of reversed fractions must fail")
	}
}

func TestBetweenSimplest(t *testing.T) {
	// The Stern–Brocot answer has the minimal denominator of any
	// fraction strictly inside the interval.
	lo, hi := MustNew(415, 943), MustNew(416, 943)
	got, ok := Between(lo, hi)
	if !ok {
		t.Fatal("Between overflowed")
	}
	if !lo.Less(got) || !got.Less(hi) {
		t.Fatalf("Between result %v not inside (%v,%v)", got, lo, hi)
	}
	for den := uint32(2); den < got.Den; den++ {
		for num := uint32(1); num < den; num++ {
			f := F{Num: num, Den: den}
			if lo.Less(f) && f.Less(hi) {
				t.Fatalf("found simpler fraction %v than %v", f, got)
			}
		}
	}
}

// randFrac maps arbitrary uint32 pairs onto valid proper fractions.
func randFrac(a, b uint32) F {
	if a == b {
		b = a + 1
	}
	if a > b {
		a, b = b, a
	}
	if b == 0 {
		b = 1
	}
	if a == 0 {
		a = 1
	}
	if a == b {
		return One
	}
	return F{Num: a, Den: b}
}

func TestMediantBetweenness(t *testing.T) {
	// Property: for valid f < g, mediant(f,g) is strictly between.
	prop := func(a, b, c, d uint32) bool {
		f, g := randFrac(a, b), randFrac(c, d)
		if !f.Less(g) {
			return true // vacuous
		}
		m, ok := Mediant(f, g)
		if !ok {
			return true // overflow is allowed; reported, not wrapped
		}
		return f.Less(m) && m.Less(g)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestNextIsGreater(t *testing.T) {
	prop := func(a, b uint32) bool {
		f := randFrac(a, b)
		n, ok := f.Next()
		if !ok {
			return true
		}
		return f.Less(n) || f.Equal(n) && false
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestLessIsStrictOrder(t *testing.T) {
	// Irreflexive and asymmetric; transitive on triples.
	prop := func(a, b, c, d, e, f uint32) bool {
		x, y, z := randFrac(a, b), randFrac(c, d), randFrac(e, f)
		if x.Less(x) {
			return false
		}
		if x.Less(y) && y.Less(x) {
			return false
		}
		if x.Less(y) && y.Less(z) && !x.Less(z) {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestReducePreservesValue(t *testing.T) {
	prop := func(a, b uint32) bool {
		f := randFrac(a, b)
		return f.Reduce().Equal(f)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestBetweenInsideInterval(t *testing.T) {
	prop := func(a, b, c, d uint32) bool {
		f, g := randFrac(a%1000, b%1000), randFrac(c%1000, d%1000)
		if !f.Less(g) {
			return true
		}
		m, ok := Between(f, g)
		if !ok {
			return true
		}
		if !f.Less(m) || !m.Less(g) {
			return false
		}
		return m == m.Reduce() // Stern–Brocot results are always reduced
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestFloatAndString(t *testing.T) {
	f := MustNew(5, 8)
	if f.Float() != 0.625 {
		t.Errorf("Float = %v, want 0.625", f.Float())
	}
	if f.String() != "5/8" {
		t.Errorf("String = %q, want 5/8", f.String())
	}
}
