package rcommon

import "slices"

// The canonical routing-layer drop reasons. Every DropData call across the
// protocols must use one of these strings: they key Result.DropReasons and
// the JSONL drop_reasons output, and the conformance suite rejects any
// reason outside this vocabulary so ad-hoc per-protocol spellings cannot
// creep back in.
const (
	// DropNoRoute: no live route and no discovery to queue behind.
	DropNoRoute = "no-route"
	// DropTTL: the packet's hop budget ran out.
	DropTTL = "ttl-expired"
	// DropLinkLost: the MAC exhausted retries toward the next hop and the
	// protocol could not (or may not) salvage the packet.
	DropLinkLost = "link-lost"
	// DropQueueFull: the per-destination discovery queue was full.
	DropQueueFull = "queue-full"
	// DropTimeout: route discovery gave up after its last retry.
	DropTimeout = "discovery-timeout"
)

// DropReasons lists the vocabulary, sorted.
var DropReasons = []string{
	DropTimeout,
	DropLinkLost,
	DropNoRoute,
	DropQueueFull,
	DropTTL,
}

// KnownDropReason reports whether r belongs to the canonical vocabulary.
func KnownDropReason(r string) bool {
	return slices.Contains(DropReasons, r)
}
