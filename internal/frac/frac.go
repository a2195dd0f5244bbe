// Package frac implements the proper-fraction ordinal set used by SRP.
//
// A proper fraction m/n consists of positive 32-bit integers with m < n,
// ranging over the open interval (0, 1). Two sentinels extend the range:
// Zero = 0/1 (the destination's minimum label) and One = 1/1 (the greatest
// element, i.e. the label of an unassigned node). The set is dense: the
// mediant (m+p)/(n+q) of m/n < p/q lies strictly between them (Eq. 1 of the
// paper), and the next-element of m/n is (m+1)/(n+1) (Eq. 2), the mediant
// with 1/1.
//
// Because components are fixed-width, a chain of mediants eventually
// overflows; the paper bounds the number of splits between two fractions by
// the Fibonacci sequence (at least 45 splits in 32 bits). All operations
// report overflow instead of wrapping.
package frac

import (
	"fmt"
	"math"
)

// F is a fraction Num/Den. The zero value is invalid; use Zero, One, or New.
type F struct {
	Num uint32
	Den uint32
}

// Sentinels for the closed label range.
var (
	// Zero is 0/1, the least element and the destination's self-label.
	Zero = F{Num: 0, Den: 1}
	// One is 1/1, the greatest element, representing "unassigned".
	One = F{Num: 1, Den: 1}
)

// New returns the fraction num/den. It returns an error unless the value is
// a proper fraction (0 < num < den) or one of the sentinels 0/1 and 1/1.
func New(num, den uint32) (F, error) {
	f := F{Num: num, Den: den}
	if !f.Valid() {
		return F{}, fmt.Errorf("frac: %d/%d is not a proper fraction or sentinel", num, den)
	}
	return f, nil
}

// MustNew is New for constants in tests and examples; it panics on error.
func MustNew(num, den uint32) F {
	f, err := New(num, den)
	if err != nil {
		panic(err)
	}
	return f
}

// Valid reports whether f is a proper fraction or a sentinel.
func (f F) Valid() bool {
	if f.Den == 0 {
		return false
	}
	if f == Zero || f == One {
		return true
	}
	return f.Num > 0 && f.Num < f.Den
}

// String renders f as "m/n".
func (f F) String() string { return fmt.Sprintf("%d/%d", f.Num, f.Den) }

// Float returns the numeric value of f for display and QoS heuristics only;
// the protocol itself never compares floats.
func (f F) Float() float64 { return float64(f.Num) / float64(f.Den) }

// Less reports f < g by exact cross multiplication in 64 bits.
func (f F) Less(g F) bool {
	return uint64(f.Num)*uint64(g.Den) < uint64(g.Num)*uint64(f.Den)
}

// Equal reports numeric equality (2/4 equals 1/2).
func (f F) Equal(g F) bool {
	return uint64(f.Num)*uint64(g.Den) == uint64(g.Num)*uint64(f.Den)
}

// SplitOverflows reports whether the mediant of f and g cannot be
// represented in 32 bits. This is the overflow test of Procedure 2 (Eq. 11)
// and Algorithm 1 lines 6 and 11: the relay checks n+q before splitting.
func SplitOverflows(f, g F) bool {
	return uint64(f.Num)+uint64(g.Num) > math.MaxUint32 ||
		uint64(f.Den)+uint64(g.Den) > math.MaxUint32
}

// Mediant returns the mediant (m+p)/(n+q) of f and g (Eq. 1). The mediant of
// f < g lies strictly between them. ok is false on 32-bit overflow, in which
// case the caller must request a path reset or drop the advertisement.
func Mediant(f, g F) (med F, ok bool) {
	if SplitOverflows(f, g) {
		return F{}, false
	}
	return F{Num: f.Num + g.Num, Den: f.Den + g.Den}, true
}

// Next returns the next-element (m+1)/(n+1) of f (Eq. 2), the mediant of f
// and 1/1. ok is false on overflow and always false for One, which has no
// next-element.
func (f F) Next() (next F, ok bool) {
	if f == One {
		return F{}, false
	}
	return Mediant(f, One)
}

// Add returns (m+p)/(n+q) without the betweenness interpretation; it backs
// Definition 6 (ordering addition O + p/q). ok is false on overflow.
func Add(f, g F) (F, bool) { return Mediant(f, g) }

// Reduce returns f with numerator and denominator divided by their GCD.
// SRP as published does not reduce fractions (§VI); Reduce is the oracle
// that shows Between's results already are.
func (f F) Reduce() F {
	if f.Num == 0 {
		return Zero
	}
	g := gcd(f.Num, f.Den)
	return F{Num: f.Num / g, Den: f.Den / g}
}

func gcd(a, b uint32) uint32 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Between returns the simplest fraction strictly between lo and hi, walking
// the Stern–Brocot tree. This implements the paper's §VI future-work item:
// an interpolation of relatively prime fractions that yields a relatively
// prime fraction, keeping denominators minimal and postponing overflow far
// beyond the 45-split mediant bound. ok is false when no proper fraction
// fits (lo >= hi numerically) or an intermediate step would overflow.
func Between(lo, hi F) (F, bool) {
	if !lo.Less(hi) {
		return F{}, false
	}
	// Walk the Stern–Brocot tree from the root 1/1 with bounds
	// [0/1, 1/0). Invariant: current = (la+ra)/(lb+rb) is the simplest
	// fraction inside the current interval.
	var la, lb uint64 = 0, 1 // left bound la/lb
	var ra, rb uint64 = 1, 0 // right bound ra/rb (represents infinity at start)
	for {
		ma, mb := la+ra, lb+rb
		if ma > math.MaxUint32 || mb > math.MaxUint32 {
			return F{}, false
		}
		m := F{Num: uint32(ma), Den: uint32(mb)}
		switch {
		case !lo.Less(m): // m <= lo: go right
			la, lb = ma, mb
		case !m.Less(hi): // m >= hi: go left
			ra, rb = ma, mb
		default:
			return m, true
		}
	}
}
