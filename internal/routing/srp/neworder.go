package srp

import (
	"slr/internal/frac"
	"slr/internal/label"
)

// splitKind selects how splitOrder interpolates between orderings.
type splitKind int

const (
	// splitMediant is the paper's Algorithm 1: the fraction mediant.
	splitMediant splitKind = iota
	// splitFarey uses the Stern-Brocot simplest fraction (§VI).
	splitFarey
	// splitNextOnly forbids interpolation: only the next-element of the
	// advertisement is tried, the AblationNextElementOnly mode.
	splitNextOnly
)

// splitMode maps a Config to its splitKind.
func splitMode(cfg Config) splitKind {
	switch {
	case cfg.NextElementOnly:
		return splitNextOnly
	case cfg.Farey:
		return splitFarey
	default:
		return splitMediant
	}
}

// newOrder implements Algorithm 1 (NEWORDER) of the paper: compute node A's
// new ordering G for destination T given its current ordering oA, the cached
// solicitation ordering c (C^A_?, the SLR request minimum M — Unassigned
// when there is no cached request, for RREQ/Hello advertisements, or at the
// RREP terminus), and the advertised ordering oAdv (O^?_T).
//
// It returns the unordered result (0, (1,1)) when no label maintaining
// order exists within 32-bit fraction precision, which forces Procedure 3
// to ignore the advertisement (Theorem 6). When farey is true, mediant
// splits are replaced by the Stern–Brocot simplest-fraction interpolation
// (§VI future work), which produces reduced fractions and postpones
// overflow; this is the AblationFarey variant.
//
// Successor elimination (Algorithm 1 line 13) is the caller's job: the
// route table prunes successors not preceded by G.
func newOrder(oA, c, oAdv label.Order, mode splitKind) label.Order {
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
			g = splitOrder(c, oAdv, mode)
		}
	case oA.SN == oAdv.SN:
		switch {
		case c.Precedes(oA):
			// Line 10: the current label already satisfies the request.
			g = oA
		default:
			// Line 12: as line 7.
			g = splitOrder(c, oAdv, mode)
		}
	}
	// oA.SN > oAdv.SN: the advertisement is infeasible (cannot occur for
	// a feasible advertisement, Theorem 6 Case I); fall through to the
	// unordered result.
	return g
}

// splitOrder returns (sn?, split(F?, F_C)) when the orderings are ordered
// and the split is representable, else Unassigned.
func splitOrder(c, oAdv label.Order, mode splitKind) label.Order {
	// Fact 2 defensively verified: C ≺ O?. Comparing fractions alone is
	// not enough: a request at a larger sequence number than the
	// advertisement's leaves no label at sn? below C (Eq. 4).
	if !c.Precedes(oAdv) {
		return label.Unassigned
	}
	switch mode {
	case splitFarey:
		if f, ok := frac.Between(oAdv.FD, c.FD); ok {
			return label.Order{SN: oAdv.SN, FD: f}
		}
	case splitNextOnly:
		// No interpolation: the next-element must happen to fit below
		// the request bound, else the relabel fails (ablation).
		if f, ok := oAdv.FD.Next(); ok && f.Less(c.FD) {
			return label.Order{SN: oAdv.SN, FD: f}
		}
	default:
		if f, ok := frac.Mediant(oAdv.FD, c.FD); ok {
			return label.Order{SN: oAdv.SN, FD: f}
		}
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
