// Package srp implements the Split-label Routing Protocol (SRP), the
// paper's concrete instance of Split Label Routing (§III).
//
// SRP is an on-demand protocol in the AODV message framework (RREQ, RREP,
// RERR) whose loop-freedom comes from keeping per-destination node
// orderings O = (sequence number, feasible-distance proper fraction) in
// topological order. The dense fraction component lets a node "insert"
// itself between its reply and its cached request minimum by a mediant
// split (Algorithm 1), so broken routes are repaired without touching
// predecessors and — in practice — without ever incrementing the
// destination sequence number (Fig. 7 of the paper).
package srp

import (
	"slr/internal/frac"
	"slr/internal/label"
	"slr/internal/netstack"
	"slr/internal/routing/rcommon"
	"slr/internal/sim"
)

// Flag bits of RREQ packets (§III).
type flags uint8

const (
	// flagU marks a solicitation whose issuer has no stored ordering for
	// the destination (Unknown).
	flagU flags = 1 << iota
	// flagN marks a RREQ that is no longer an advertisement for its
	// source.
	flagN
	// flagD forces the RREQ to travel to the destination itself, used to
	// request a path reset.
	flagD
	// flagT is the reset-required bit rr of a solicitation: an invariant
	// ordering violation could occur and the path must be reset with a
	// larger sequence number.
	flagT
)

// rreq is the route request. The solicitation piece is
// {src, rreqID, dst, dstSeq, f, d, flags}; the advertisement piece (for the
// source) is {srcSeq, lf, ld, lifetime}, valid unless flagN is set.
type rreq struct {
	Src    netstack.NodeID
	RreqID uint32
	Dst    netstack.NodeID
	// DstSeq and F are the solicitation ordering O# for Dst (flagU: none).
	DstSeq label.SeqNo
	F      frac.F
	// D is the measured distance the request has traveled.
	D int
	// Advertisement for Src (invalid when flagN set): sequence number,
	// last-hop feasible distance, and last-hop measured distance.
	SrcSeq   label.SeqNo
	LF       frac.F
	LD       int
	Lifetime sim.Time
	Flags    flags
	TTL      int
	Age      sim.Time
	// Comp is the computation's record, shared by every copy and reply.
	Comp *rcommon.Computation[rreqState]
}

// order returns the solicitation ordering O# (Definition 5 note: U bit means
// unassigned).
func (r *rreq) order() label.Order {
	if r.Flags&flagU != 0 {
		return label.Unassigned
	}
	return label.Order{SN: r.DstSeq, FD: r.F}
}

// srcOrder returns the advertisement ordering for the source.
func (r *rreq) srcOrder() label.Order {
	return label.Order{SN: r.SrcSeq, FD: r.LF}
}

// rrep is the route reply: an advertisement for Dst traveling back toward
// Src along the reverse path cached per (Src, RreqID), in the record the
// answered RREQ carried.
type rrep struct {
	Src    netstack.NodeID
	RreqID uint32
	Dst    netstack.NodeID
	// DstSeq and LF are the advertised ordering O? for Dst.
	DstSeq   label.SeqNo
	LF       frac.F
	LD       int // advertised measured distance to Dst
	Lifetime sim.Time
	Age      sim.Time
	Comp     *rcommon.Computation[rreqState] // the answered RREQ's record
}

// order returns the advertised ordering O?.
func (r *rrep) order() label.Order {
	return label.Order{SN: r.DstSeq, FD: r.LF}
}

// rerr reports broken destinations to predecessors, as in AODV.
type rerr struct {
	// Dests lists destinations now unreachable via the sender, with the
	// sequence number known at the sender.
	Dests []netstack.NodeID
}

// hello is a periodic advertisement of this node's orderings for a subset
// of its active destinations. Procedure 3 treats Hello advertisements like
// RREP advertisements with no cached solicitation (C = Unassigned). The
// paper's simulations run without hellos; the option completes §III.
type hello struct {
	Entries []helloEntry
}

type helloEntry struct {
	Dst netstack.NodeID
	SN  label.SeqNo
	F   frac.F
	D   int
}

// Wire sizes in bytes, following the AODV packet formats extended with
// SRP's fraction (8 bytes) and 64-bit sequence-number fields.
const (
	rreqSize     = 52
	rrepSize     = 40
	rerrBaseSize = 4
	rerrPerDest  = 12
	helloBase    = 4
	helloPerDest = 20
)

func (h *hello) size() int { return helloBase + helloPerDest*len(h.Entries) }

func (e *rerr) size() int { return rerrBaseSize + rerrPerDest*len(e.Dests) }
