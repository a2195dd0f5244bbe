package srp

import (
	"slr/internal/core"
	"slr/internal/frac"
	"slr/internal/label"
)

// nextElementOnly is the ablation's label set: core.FracSet without
// interpolation. Its Split may only take the next-element of lo, and fails
// unless that falls below hi, so a relabel that needs a split between the
// advertisement and the request bound fails and forces a path reset,
// degrading SRP toward an integer-ordering protocol like LDR.
type nextElementOnly struct{ core.FracSet }

// Split returns lo's next-element when it lies below hi.
func (nextElementOnly) Split(lo, hi frac.F) (frac.F, bool) {
	if f, ok := lo.Next(); ok && f.Less(hi) {
		return f, true
	}
	return frac.F{}, false
}

// newOrder implements Algorithm 1 (NEWORDER) of the paper: compute node A's
// new ordering G for destination T given its current ordering oA, the cached
// solicitation ordering c (C^A_?, the SLR request minimum M — Unassigned
// when there is no cached request, for RREQ/Hello advertisements, or at the
// RREP terminus), and the advertised ordering oAdv (O^?_T).
//
// It returns the unordered result (0, (1,1)) when no label maintaining
// order exists within 32-bit fraction precision, which forces Procedure 3
// to ignore the advertisement (Theorem 6). Splits (lines 7 and 12) are
// set's: the paper's mediant, or another interpolation of the same
// fractions (Config.Labels).
//
// Successor elimination (Algorithm 1 line 13) is the caller's job: the
// route table prunes successors not preceded by G.
func newOrder(oA, c, oAdv label.Order, set core.Set[frac.F]) label.Order {
	g := label.Unassigned
	switch {
	case oA.SN < oAdv.SN:
		switch {
		case c.SN < oAdv.SN:
			// Line 5: G <- O? + 1/1.
			if next, ok := oAdv.NextElement(); ok {
				g = next
			}
		default:
			// Line 7: split C against O? at the advertised sequence
			// number. Requires Fact 2 (C ≺ O?) for betweenness; under
			// network drift the fact can fail, in which case no
			// in-order label exists and we return unordered.
			g = splitOrder(c, oAdv, set)
		}
	case oA.SN == oAdv.SN:
		switch {
		case c.Precedes(oA):
			// Line 10: the current label already satisfies the request.
			g = oA
		default:
			// Line 12: as line 7.
			g = splitOrder(c, oAdv, set)
		}
	}
	// oA.SN > oAdv.SN: the advertisement is infeasible (cannot occur for
	// a feasible advertisement, Theorem 6 Case I); fall through to the
	// unordered result.
	return g
}

// splitOrder returns (sn?, set.Split(F?, F_C)) when the orderings are
// ordered and the split is representable, else Unassigned.
func splitOrder(c, oAdv label.Order, set core.Set[frac.F]) label.Order {
	// Fact 2 defensively verified: C ≺ O?. Comparing fractions alone is
	// not enough: a request at a larger sequence number than the
	// advertisement's leaves no label at sn? below C (Eq. 4).
	if !c.Precedes(oAdv) {
		return label.Unassigned
	}
	if f, ok := set.Split(oAdv.FD, c.FD); ok {
		return label.Order{SN: oAdv.SN, FD: f}
	}
	return label.Unassigned
}

// lie returns the understated solicitation fraction of §V: a node issuing a
// RREQ advertises (p-1)/(q-1) instead of its true p/q, or, when p = 1,
// (kp-1)/(kq-1) with k = 10000. The lie is strictly below the true
// ordering, which keeps marginally in-order nodes from answering with
// near-useless replies. Fractions that cannot be understated are returned
// unchanged.
func lie(f frac.F) frac.F {
	const k = 10000
	if f == frac.Zero || f == frac.One {
		return f
	}
	if f.Num > 1 {
		return frac.F{Num: f.Num - 1, Den: f.Den - 1}
	}
	if uint64(f.Den)*k <= 1<<32-1 {
		return frac.F{Num: k*f.Num - 1, Den: k*f.Den - 1}
	}
	return f
}
