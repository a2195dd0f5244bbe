// Package core implements the Split Label Routing (SLR) framework — the
// paper's primary contribution (§II).
//
// SLR keeps per-destination node labels in topological order over a *dense*
// ordinal set: between any two labels there is always another label, so a
// node can be inserted into an existing DAG by "splitting" labels without
// relabeling its predecessors. The package provides:
//
//   - Set: the ordinal label-set abstraction (dense strict order with a
//     greatest element and a next-element operator).
//   - CheckOrder: Definition 1, the four maintain-order inequalities
//     (Eqs. 3–6) every relabel must satisfy.
//   - ChooseLabel: the constructive label choice of Theorem 4, used by the
//     reply (advertisement) phase.
//   - Graph: a live invariant checker for Theorems 1–3 (predecessor and
//     successor ordering, loop-freedom at every instant).
//   - Engine: a synchronous SLR route computation over a static topology,
//     reproducing the paper's Examples 1 and 2 exactly.
//
// The production asynchronous instance of SLR is SRP, in
// slr/internal/routing/srp: its relabels split in a Set[frac.F] (FracSet,
// FareySet or its next-element-only ablation) and pass CheckOrder over
// OrderSet, the Order label set of slr/internal/label.
package core

import (
	"errors"
	"fmt"

	"slr/internal/frac"
	"slr/internal/label"
)

// Set is the label ordinal set L of §II: a dense strict order with a
// greatest element and a next-element operator. Less is the SLR label order
// in which the destination holds the minimum label and every directed edge
// (i, j) of the successor DAG satisfies Less(label(j), label(i)).
type Set[L any] interface {
	// Less reports the strict label order a < b.
	Less(a, b L) bool
	// Equal reports label equality.
	Equal(a, b L) bool
	// Greatest returns the greatest element (the unassigned label).
	Greatest() L
	// Next returns the next-element of a (a < Next(a)); ok is false when
	// a is the greatest element or the set's representation overflows.
	Next(a L) (next L, ok bool)
	// Split returns a label strictly between lo and hi; ok is false when
	// lo >= hi or the representation overflows. Density of the set
	// guarantees existence whenever lo < hi and no overflow occurs.
	Split(lo, hi L) (mid L, ok bool)
}

// Maintain-order violations, one per inequality of Definition 1.
var (
	// ErrNotFinite: the proposed label is the greatest element (G = ∞).
	ErrNotFinite = errors.New("slr: proposed label is the greatest element")
	// ErrPredecessorOrder: Eq. 3 violated (G > current label).
	ErrPredecessorOrder = errors.New("slr: label increase violates predecessor order (eq. 3)")
	// ErrRequestOrder: Eq. 4 violated (G >= cached minimum request label M).
	ErrRequestOrder = errors.New("slr: label not below cached request minimum (eq. 4)")
	// ErrInfeasible: Eq. 5 violated (advertised label >= G).
	ErrInfeasible = errors.New("slr: advertisement not below proposed label (eq. 5)")
	// ErrSuccessorOrder: Eq. 6 violated (max successor label >= G).
	ErrSuccessorOrder = errors.New("slr: proposed label not above successor labels (eq. 6)")
)

// CheckOrder verifies Definition 1 for a proposed new label g at a node with
// current label cur, cached request minimum m, advertised label adv, and
// maximum successor label smax. A nil smax means the successor set is empty
// (Eq. 6 vacuous; in the paper smax is then the least element).
//
// It returns nil when g maintains order, or the first violated inequality.
func CheckOrder[L any](s Set[L], g, cur, m, adv L, smax *L) error {
	if s.Equal(g, s.Greatest()) {
		return ErrNotFinite
	}
	if s.Less(cur, g) { // violates G <= L_i
		return ErrPredecessorOrder
	}
	if !s.Less(g, m) { // violates G < M_i
		return ErrRequestOrder
	}
	if !s.Less(adv, g) { // violates L? < G
		return ErrInfeasible
	}
	if smax != nil && !s.Less(*smax, g) { // violates S_max < G
		return ErrSuccessorOrder
	}
	return nil
}

// ChooseLabel implements the label choice a node makes when it accepts an
// advertisement (Theorem 4). Given the node's current label cur, its cached
// request minimum m, and the advertised label adv (which must satisfy
// adv < cur for the advertisement to be feasible), it returns a label G with
// adv < G < min(m, cur) when a relabel is needed, keeps cur when cur already
// maintains order, and fails only on representation overflow.
//
// The selection mirrors §II: "generally choosing the next-element L?+, so
// long as it maintains order. Otherwise, node i will split the ordering of
// L? and the cached M_i."
func ChooseLabel[L any](s Set[L], cur, m, adv L) (L, error) {
	var zero L
	if !s.Less(adv, cur) {
		return zero, fmt.Errorf("choose label: %w", ErrInfeasible)
	}
	// Keep the current label when it already satisfies Eq. 4 (nodes G and
	// H of Example 2).
	if s.Less(cur, m) {
		return cur, nil
	}
	// Here cur >= m, so min(m, cur) = m bounds the new label from above.
	bound := m
	// Prefer the next-element of the advertisement when it fits.
	if next, ok := s.Next(adv); ok && s.Less(next, bound) {
		return next, nil
	}
	// Otherwise split the advertisement against the bound; density
	// guarantees existence absent overflow.
	if mid, ok := s.Split(adv, bound); ok {
		return mid, nil
	}
	return zero, fmt.Errorf("choose label: ordinal set overflow between %v and %v", adv, bound)
}

// FracSet is the proper-fraction ordinal set of §II used by the paper's
// examples: least element 0/1, greatest element 1/1, mediant interpolation.
type FracSet struct{}

var _ Set[frac.F] = FracSet{}

// Less reports a < b numerically.
func (FracSet) Less(a, b frac.F) bool { return a.Less(b) }

// Equal reports numeric equality.
func (FracSet) Equal(a, b frac.F) bool { return a.Equal(b) }

// Greatest returns 1/1.
func (FracSet) Greatest() frac.F { return frac.One }

// Next returns the next-element (m+1)/(n+1).
func (FracSet) Next(a frac.F) (frac.F, bool) { return a.Next() }

// Split returns the mediant of lo and hi.
func (FracSet) Split(lo, hi frac.F) (frac.F, bool) {
	if !lo.Less(hi) {
		return frac.F{}, false
	}
	return frac.Mediant(lo, hi)
}

// FareySet is FracSet with the Stern–Brocot reduced-mediant interpolation of
// §VI (future work in the paper): Split returns the *simplest* fraction in
// the interval, which keeps denominators minimal and postpones overflow far
// beyond the 45-split mediant bound.
type FareySet struct{}

var _ Set[frac.F] = FareySet{}

// Less reports a < b numerically.
func (FareySet) Less(a, b frac.F) bool { return a.Less(b) }

// Equal reports numeric equality.
func (FareySet) Equal(a, b frac.F) bool { return a.Equal(b) }

// Greatest returns 1/1.
func (FareySet) Greatest() frac.F { return frac.One }

// Next returns the next-element (m+1)/(n+1).
func (FareySet) Next(a frac.F) (frac.F, bool) { return a.Next() }

// Split returns the simplest fraction strictly between lo and hi.
func (FareySet) Split(lo, hi frac.F) (frac.F, bool) { return frac.Between(lo, hi) }

// OrderSet adapts SRP's composite ordering O = (sn, F) to the SLR label
// order. The SLR order is the *reverse* of the precedence relation ≺ of
// Definition 5: O_i ≺ O_j reads "j is a feasible successor of i", i.e. j
// holds the smaller SLR label, so Less(a, b) ⇔ b ≺ a.
type OrderSet struct{}

var _ Set[label.Order] = OrderSet{}

// Less reports that a is below b in the DAG (b ≺ a).
func (OrderSet) Less(a, b label.Order) bool { return b.Precedes(a) }

// Equal reports label equality.
func (OrderSet) Equal(a, b label.Order) bool { return a.Equal(b) }

// Greatest returns the unassigned ordering (0, (1,1)).
func (OrderSet) Greatest() label.Order { return label.Unassigned }

// Next returns a label just above a in the DAG: O + 1/1.
func (OrderSet) Next(a label.Order) (label.Order, bool) { return a.NextElement() }

// Split returns an ordering strictly between lo and hi.
func (OrderSet) Split(lo, hi label.Order) (label.Order, bool) {
	// lo < hi in SLR order means hi ≺ lo; label.Split wants the
	// preceding element first and returns m with hi ≺ m ≺ lo.
	return label.Split(hi, lo)
}
