// Package olsr implements the Optimized Link State Routing protocol
// (Clausen, Jacquet, et al.; IETF draft-ietf-manet-olsr-06), the proactive
// baseline of the paper's evaluation.
//
// Every node broadcasts periodic HELLOs to discover symmetric neighbors and
// the two-hop neighborhood, selects a minimal multipoint relay (MPR) set
// covering all two-hop neighbors, and floods topology-control (TC) messages
// through the MPR backbone. Routes are shortest paths over the resulting
// link-state database. OLSR has routes ready before traffic arrives (the
// paper's Fig. 6 shows its low latency) at the price of constant control
// overhead (Fig. 5) — and it is not loop-free at every instant during
// topology transients.
//
// # The route cache
//
// The routing table is a pure function of the link-state inputs alive at
// its last rebuild: the symmetric neighbors and the TC-learned topology,
// each filtered by its expiry deadline. It is rebuilt only when read
// (recompute), only once something has marked it dirty (a HELLO heard, a
// TC accepted, a link failure, a sweep that deleted an entry), and then
// only if one of two signals says the inputs moved:
//
//   - a structure version, bumped only when an input actually changes (a
//     symmetric link appears, disappears or revives; an advertised set
//     differs; the sweep deletes an entry), not on every control receipt;
//     and
//   - an expiry horizon, the earliest deadline among the inputs the last
//     rebuild consumed. Before the horizon, with an unchanged version, a
//     rebuild would read exactly the same inputs and produce exactly the
//     same table, so it is skipped.
//
// An input's expiry marks nothing dirty. Past its deadline, until the
// once-a-second sweep deletes it or something else marks the table, routes
// over it are still served (TestExpiredLinkServedUntilDirty).
//
// # MPR selection: note or settle
//
// The MPR set is read in one place, the node's own HELLO, yet its inputs
// (the symmetric neighbors and their two-hop sets) change with nearly
// every HELLO heard. So a HELLO heard, the once-a-second expiry sweep
// (when anything changed since the last route rebuild) and a failed data
// unicast do not run the cover: each notes the instant the inputs changed
// (mprAt) and leaves the selection pending. sendHello settles it by
// running the cover as of mprAt. The result is the set the cover would
// have left behind had it run at every note, by one invariant: every
// mutation of the MPR inputs is either noted at the instant it happens
// (HELLO, expiry sweep, DataFailed) or preceded by a settle
// (ControlFailed's removal, after which the selection stays as it was
// until the next note). When sendHello settles, the inputs are therefore
// exactly those of mprAt, and the cover is a pure function of them and
// mprAt. A new mutator of the neighbor table must note or settle, too;
// TestNoteOrSettle holds the rule to a cover run at every note.
//
// Neither computation keeps storage of its own between calls: the route
// table is emptied in place, and the working storage of a run (the BFS
// queue; the cover's candidates, bitsets, counts and chains) is a scratch
// taken from one package-level pool and put back at its end. Neighbors
// live by value in an rcommon.IDTable slab, topology entries and routes in
// dense tables (below). What a node hears it keeps by reference, never
// copied, because no body is written after its sender hands it to the air:
// every receiver's two-hop set aliases the HELLO's neighbor list, self
// included, and every relayed copy and topology entry points at the TC's
// one body (its sequence number and advertised ids, sorted once by its
// originator).
//
// # The dense tables
//
// A node hears a TC from every originator in the network and, once it
// forwards data, holds a route to every node it can reach, so the topology
// table and the route table are slices indexed by node id, not IDTables: a
// lookup reads one entry, with no index slot before it and no key beside
// it. The zero value is "no entry" (a topology entry with no body, a route
// of no hops), and reading past the end finds it too. A slice grows on the
// first write past its end (fit), never at construction. The neighbor
// table holds a neighborhood, not the network, and stays an IDTable.
package olsr

import (
	"cmp"
	"math"
	"slices"
	"sync"
	"time"

	"slr/internal/netstack"
	"slr/internal/routing/rcommon"
	"slr/internal/sim"
)

// OLSR runs at the draft's default timing: a HELLO every helloInterval and
// a TC every tcInterval, each plus a uniform jitter below maxJitter; a
// neighbor is held neighborHold past its last HELLO, a topology entry
// topologyHold past its last TC.
const (
	helloInterval = 2 * time.Second
	tcInterval    = 5 * time.Second
	neighborHold  = 6 * time.Second
	topologyHold  = 15 * time.Second
	maxJitter     = 500 * time.Millisecond
)

// hello advertises the sender's neighbor set; receivers use it for link
// sensing (bidirectionality), two-hop discovery, and MPR signaling.
type hello struct {
	From netstack.NodeID
	// Neighbors lists every live neighbor of From, heard or symmetric,
	// with no link type: RFC 3626 §6.1 marks each link's type, this HELLO
	// does not. It is never written after send; every receiver's two-hop
	// set aliases it.
	Neighbors []netstack.NodeID
	MPRs      []netstack.NodeID // neighbors From selected as MPR
}

// tc floods the sender's MPR-selector set through the MPR backbone.
type tc struct {
	Orig netstack.NodeID
	// Body is what the originator says, shared by every copy of the flood
	// and every topology entry it writes.
	Body  *tcBody
	TTL   int
	Flood *rcommon.Flood // duplicate record, shared by every copy
}

// tcBody is a TC's content: its sequence number and the advertised ids,
// sorted. sendTC makes one per origination and nothing writes it after
// send, so receivers keep the pointer and never copy it.
type tcBody struct {
	Seq        uint32
	Advertised []netstack.NodeID
}

// Wire sizes.
const (
	helloBase = 8
	tcBase    = 12
	perAddr   = 4
)

// topoEntry is what a node holds per TC originator: 16 bytes, the
// topology table's element. The zero value, with no body, is no entry.
type topoEntry struct {
	// body is the body of the last TC accepted from the originator,
	// shared, not copied: never written after send, so it is read-only
	// here too. A refresh that advertises the same ids replaces it as well,
	// so the entry pins no superseded body. Route recomputation walks the
	// advertised ids in id order, so equal-cost tie-breaks do not depend on
	// the order the originator's table listed its selectors in.
	body   *tcBody
	expiry sim.Time
}

// neighbor is what a node holds per neighbor it hears: HELLO liveness and
// what the neighbor's last HELLO said.
type neighbor struct {
	// expiry is the HELLO-liveness deadline; a neighbor whose HELLOs stop
	// ages out at it.
	expiry sim.Time
	// twoHop is the neighbor list of the neighbor's last HELLO, the two-hop
	// neighborhood the MPR cover covers: the HELLO's own slice, which its
	// sender never writes after send, in the sender's slot order and
	// without duplicates. It names this node whenever the link is
	// symmetric, and readers skip it. The HELLO has no link types, so
	// twoHop includes the neighbor's asymmetric links too (RFC 3626 §8.3.1
	// keeps only symmetric ones). It needs no deadline of its own: the
	// HELLO that writes it also writes expiry.
	twoHop []netstack.NodeID
	// sym marks the link symmetric: the neighbor's last HELLO listed this
	// node. selectsMe marks that the HELLO named this node an MPR.
	sym, selectsMe bool
}

// route is one routing-table entry: the next hop toward a destination and
// the length of the path through it, 8 bytes: node ids fit 32 bits in
// every scenario. The zero value, of no hops, is no route.
type route struct {
	nh, hops int32
}

// forever is the expiry horizon of a computation that consumed no
// expirable inputs, and the sweep horizon of an empty table: the clock
// alone never reaches it.
const forever = sim.Time(math.MaxInt64)

// symNeighbor is one live symmetric neighbor of an MPR selection run: the
// id plus its table entry, which is valid for that run only.
type symNeighbor struct {
	id netstack.NodeID
	nb *neighbor
}

// Protocol is one node's OLSR instance.
type Protocol struct {
	netstack.BaseProtocol
	node *netstack.Node
	self netstack.NodeID

	// nbrs is the HELLO-liveness neighbor table: written by every HELLO
	// heard (touch), deleted from on link-layer failure and by the sweep.
	// Entries may be expired but not yet swept; readers filter by expiry.
	nbrs rcommon.IDTable[neighbor]
	// mprs is the MPR set as of the last selection, in selection order.
	mprs []netstack.NodeID
	// topo is the topology table: the last TC accepted from originator id
	// is topo[id] (see the package comment on the dense tables). Entries
	// may be expired but not yet swept; readers filter by expiry.
	topo []topoEntry
	// nbrHorizon and topoHorizon lower-bound every expiry in nbrs and
	// topo: the once-a-second sweep skips a table before its horizon. A
	// write of an expiry lowers the horizon, a sweep sets the exact minimum.
	nbrHorizon  sim.Time
	topoHorizon sim.Time
	tcSeq       uint32
	// swept is the instant of the last once-a-second sweep, which is when
	// TC sightings expire (rcommon.Flood).
	swept sim.Time

	helloBeacon rcommon.Beaconer
	tcBeacon    rcommon.Beaconer
	sweeper     rcommon.Beaconer

	routes []route // routes[dst], dense like topo, refilled by each rebuild

	// linkVer counts structural changes to the route inputs (symmetric
	// links and TC-learned links). Expiry refreshes and content-identical
	// re-advertisements do not bump it.
	linkVer uint64
	// routeVer/routeHorizon stamp the inputs of the last route rebuild.
	// See the package comment for the skip rule.
	routeVer     uint64
	routeHorizon sim.Time
	// mprAt is the instant of the last noted change to the MPR inputs;
	// mprPending says the selection has not been settled since. See the
	// package comment for the note-or-settle rule.
	mprAt      sim.Time
	mprPending bool
	// rebuilds/mprRuns count the computations that actually ran, for
	// tests and profiling.
	rebuilds uint64
	mprRuns  uint64

	dirty   bool
	started bool
}

var _ netstack.Protocol = (*Protocol)(nil)

// New returns an OLSR instance.
func New() *Protocol {
	return &Protocol{}
}

// Attach implements netstack.Protocol.
func (p *Protocol) Attach(n *netstack.Node) {
	p.node = n
	p.self = n.ID()
}

// Start implements netstack.Protocol: kick off the periodic HELLO and TC
// schedules with initial jitter so nodes do not synchronize. Starting
// twice is a no-op.
func (p *Protocol) Start() {
	if p.started {
		return
	}
	p.started = true
	p.helloBeacon.Start(p.node, p.jitter(),
		func() sim.Time { return helloInterval + p.jitter() }, p.sendHello)
	p.tcBeacon.Start(p.node, helloInterval+p.jitter(),
		func() sim.Time { return tcInterval + p.jitter() }, p.sendTC)
	p.sweeper.StartEvery(p.node, time.Second, p.expire)
}

func (p *Protocol) jitter() sim.Time {
	return sim.Time(p.node.Rand().Int63n(int64(maxJitter)))
}

// SuccessorsOf exposes the next hop for inspection.
func (p *Protocol) SuccessorsOf(dst netstack.NodeID) []netstack.NodeID {
	p.recompute()
	if r := p.routeTo(dst); r.hops != 0 {
		return []netstack.NodeID{netstack.NodeID(r.nh)}
	}
	return nil
}

// topoOf returns the topology entry of originator id, the zero entry when
// there is none. It is a lookup on every TC heard and stays within the
// inliner's budget (make inline checks it).
func (p *Protocol) topoOf(id netstack.NodeID) topoEntry {
	if uint(id) < uint(len(p.topo)) {
		return p.topo[id]
	}
	return topoEntry{}
}

// routeTo returns the route to dst, the zero route when there is none. It
// is the lookup of every data packet forwarded and stays within the
// inliner's budget (make inline checks it).
func (p *Protocol) routeTo(dst netstack.NodeID) route {
	if uint(dst) < uint(len(p.routes)) {
		return p.routes[dst]
	}
	return route{}
}

// fit returns t long enough to hold the entry of node id: t itself when it
// is, else t extended with zero entries by append and resliced to its
// capacity, which append zeroes too. append's growth (double while small,
// then about a quarter) keeps the copies amortised; strict doubling would
// leave a table of a 1000-node network about 1,500 slots long on average.
func fit[T any](t []T, id netstack.NodeID) []T {
	if uint(id) < uint(len(t)) {
		return t
	}
	t = append(t, make([]T, int(id)+1-len(t))...)
	return t[:cap(t)]
}

// --- Periodic control -------------------------------------------------

func (p *Protocol) sendHello() {
	p.settleMPRs()
	now := p.node.Now()
	// Both heard (asymmetric) and symmetric links are advertised; hearing
	// oneself in a HELLO is what upgrades a link to symmetric, so
	// asymmetric links must be included to bootstrap.
	nbs := make([]netstack.NodeID, 0, p.nbrs.Len())
	for i := range p.nbrs.Len() {
		if p.nbrs.At(i).expiry > now {
			nbs = append(nbs, p.nbrs.KeyAt(i))
		}
	}
	var mprList []netstack.NodeID
	for _, id := range p.mprs {
		if nb := p.nbrs.Get(uint32(id)); nb != nil && nb.expiry > now {
			mprList = append(mprList, id)
		}
	}
	h := &hello{From: p.self, Neighbors: nbs, MPRs: mprList}
	p.node.BroadcastControl(helloBase+perAddr*(len(nbs)+len(mprList)), h)
}

func (p *Protocol) sendTC() {
	// Only nodes selected as MPR by someone originate TCs.
	var selectors []netstack.NodeID
	now := p.node.Now()
	for i := range p.nbrs.Len() {
		if nb := p.nbrs.At(i); nb.expiry > now && nb.selectsMe {
			selectors = append(selectors, p.nbrs.KeyAt(i))
		}
	}
	if len(selectors) == 0 {
		return
	}
	slices.Sort(selectors)
	p.tcSeq++
	m := &tc{Orig: p.self, Body: &tcBody{Seq: p.tcSeq, Advertised: selectors}, TTL: 35, Flood: rcommon.NewFlood(now)}
	p.node.BroadcastControl(tcBase+perAddr*len(selectors), m)
}

func (p *Protocol) expire() {
	now := p.node.Now()
	lostNbrs := p.sweepNbrs(now)
	lostTopo := p.sweepTopo(now)
	if lostNbrs || lostTopo {
		p.dirty = true
		p.linkVer++
	}
	p.swept = now
	if p.dirty {
		p.noteMPRs(now)
	}
}

// sweepNbrs deletes the neighbors whose expiry has passed at now and
// reports whether it deleted any. nbrHorizon lower-bounds every expiry in
// the table, so a sweep before it provably deletes nothing and returns at
// once; a sweep that walks sets it to the exact minimum, and every write
// of an expiry must lower it. The walk goes down because Delete moves the
// last entry into the freed slot.
func (p *Protocol) sweepNbrs(now sim.Time) bool {
	if now < p.nbrHorizon {
		return false
	}
	min, deleted := forever, false
	for i := p.nbrs.Len() - 1; i >= 0; i-- {
		if exp := p.nbrs.At(i).expiry; exp <= now {
			p.nbrs.Delete(p.nbrs.KeyAt(i))
			deleted = true
		} else if exp < min {
			min = exp
		}
	}
	p.nbrHorizon = min
	return deleted
}

// sweepTopo is sweepNbrs for the topology table and topoHorizon; it
// deletes an entry by zeroing it.
func (p *Protocol) sweepTopo(now sim.Time) bool {
	if now < p.topoHorizon {
		return false
	}
	min, deleted := forever, false
	for i := range p.topo {
		te := &p.topo[i]
		if te.body == nil {
			continue
		}
		if te.expiry <= now {
			*te = topoEntry{}
			deleted = true
		} else if te.expiry < min {
			min = te.expiry
		}
	}
	p.topoHorizon = min
	return deleted
}

// RecvControl implements netstack.Protocol.
func (p *Protocol) RecvControl(from netstack.NodeID, msg any) {
	switch m := msg.(type) {
	case *hello:
		p.handleHello(from, m)
	case *tc:
		p.handleTC(from, m)
	}
}

func (p *Protocol) handleHello(from netstack.NodeID, h *hello) {
	now := p.node.Now()
	nb, old := p.touch(from, now+neighborHold)
	// A live symmetric link before this hello; the hello leaves the entry
	// live, so comparing against the new sym below detects both symmetry
	// flips and the revival of an expired-but-unswept link — the two ways
	// a hello can change which links the next rebuild sees.
	wasLiveSym := old.sym && old.expiry > now
	// The link is symmetric once the neighbor lists us.
	nb.sym = slices.Contains(h.Neighbors, p.self)
	if nb.sym != wasLiveSym {
		p.linkVer++
	}
	nb.selectsMe = slices.Contains(h.MPRs, p.self)
	nb.twoHop = h.Neighbors
	p.dirty = true
	p.noteMPRs(now)
}

// touch records a HELLO from id, live until expiry: the entry is made on
// first contact and the neighbor sweep's horizon lowered to the deadline.
// It returns the entry and its prior state (zero on first contact), so a
// HELLO costs one table probe.
func (p *Protocol) touch(id netstack.NodeID, expiry sim.Time) (nb *neighbor, old neighbor) {
	nb, _ = p.nbrs.Put(id)
	old = *nb
	nb.expiry = expiry
	p.nbrHorizon = min(p.nbrHorizon, expiry)
	return nb, old
}

func (p *Protocol) handleTC(from netstack.NodeID, m *tc) {
	if m.Orig == p.self {
		return
	}
	now := p.node.Now()
	if m.Flood.Witness(p.self, now, p.swept) {
		te := p.topoOf(m.Orig)
		if te.body == nil || !rcommon.SeqGT(te.body.Seq, m.Body.Seq) {
			exp := now + topologyHold
			// A re-advertisement that names the same links while the old
			// entry is still live is a refresh: no link appears or
			// disappears at any instant before the (previous) horizon, so
			// the route cache stays valid.
			refresh := te.body != nil && te.expiry > now && slices.Equal(te.body.Advertised, m.Body.Advertised)
			p.topo = fit(p.topo, m.Orig)
			p.topo[m.Orig] = topoEntry{body: m.Body, expiry: exp}
			if !refresh {
				p.linkVer++
			}
			if exp < p.topoHorizon {
				p.topoHorizon = exp
			}
			p.dirty = true
		}
		// MPR forwarding rule: relay only if the transmitter selected
		// this node as MPR.
		if nb := p.nbrs.Get(uint32(from)); nb != nil && nb.selectsMe && m.TTL > 1 {
			z := *m
			z.TTL--
			jit := sim.Time(p.node.Rand().Int63n(int64(10 * time.Millisecond)))
			p.node.BroadcastControlAfter(jit, tcBase+perAddr*len(z.Body.Advertised), &z)
		}
	}
}

// --- MPR selection ------------------------------------------------------

// noteMPRs records that the MPR inputs changed at now: the selection is
// pending until the next HELLO settles it.
func (p *Protocol) noteMPRs(now sim.Time) {
	p.mprAt, p.mprPending = now, true
}

// settleMPRs brings mprs up to date with the last noted change. It is the
// only caller of selectMPRsAt: sendHello settles before reading mprs, and
// any mutation of the MPR inputs that is not noted settles first.
func (p *Protocol) settleMPRs() {
	if p.mprPending {
		p.mprPending = false
		p.selectMPRsAt(p.mprAt)
	}
}

// selectMPRsAt runs the greedy set cover of the strict two-hop
// neighborhood as of now.
func (p *Protocol) selectMPRsAt(now sim.Time) {
	s := scratchPool.Get().(*scratch)
	p.coverTwoHop(s, now)
	scratchPool.Put(s)
}

// coverTwoHop selects the MPR set as of now, working in s.
//
// The cover runs over bitsets indexed by node id and the flat two-hop
// lists: node ids are dense in every scenario, so membership is one
// shift+mask. Cover counts are order-independent sums and the candidate
// scan walks liveSym in id order, so the selected set depends on the
// order of neither the neighbor table nor any two-hop list. Every piece
// of s is reset before it is read, and s leaves holding no pointer into
// p's tables.
func (p *Protocol) coverTwoHop(s *scratch, now sim.Time) {
	p.mprRuns++
	s.liveSym = s.liveSym[:0]
	maxID := p.self
	for i := range p.nbrs.Len() {
		if nb := p.nbrs.At(i); nb.sym && nb.expiry > now {
			id := p.nbrs.KeyAt(i)
			s.liveSym = append(s.liveSym, symNeighbor{id: id, nb: nb})
			maxID = max(maxID, id)
			for _, th := range nb.twoHop {
				maxID = max(maxID, th)
			}
		}
	}
	slices.SortFunc(s.liveSym, func(a, b symNeighbor) int { return cmp.Compare(a.id, b.id) })
	s.symBits.reset(int(maxID) + 1)
	s.uncov.reset(int(maxID) + 1)
	for _, e := range s.liveSym {
		s.symBits.set(e.id)
	}
	nCand := len(s.liveSym)
	s.coverCnt = resizeInt32(s.coverCnt, nCand)
	s.chosen = resizeBool(s.chosen, nCand)
	if len(s.covHead) < int(maxID)+1 {
		s.covHead = append(s.covHead, make([]int32, int(maxID)+1-len(s.covHead))...)
	}
	s.covNext = s.covNext[:0]
	s.covOwner = s.covOwner[:0]
	uncovered := 0
	// One pass builds the strict two-hop set (reachable through a
	// symmetric neighbor, not a symmetric neighbor itself, not self), the
	// per-candidate cover counts, and the per-two-hop chains of covering
	// candidates. Strict-set membership depends only on self and symBits
	// (both fixed here), so a candidate's count and a two-hop id's chain
	// are complete even though uncov is still being populated. covHead is
	// cleared lazily: a slot is written the moment its id first enters
	// uncov, which was reset above, so no slot is read before this run
	// wrote it. A two-hop id cleared during the rounds below was
	// necessarily uncovered here (uncov only shrinks), so its chain names
	// exactly the candidates whose counts must drop — the counts stay
	// equal to the cover the per-round rescan used to recompute, and the
	// selection is identical.
	for i, e := range s.liveSym {
		cnt := int32(0)
		for _, th := range e.nb.twoHop {
			if th == p.self || s.symBits.has(th) {
				continue
			}
			if !s.uncov.has(th) {
				s.uncov.set(th)
				s.covHead[th] = -1
				uncovered++
			}
			s.covNext = append(s.covNext, s.covHead[th])
			s.covOwner = append(s.covOwner, int32(i))
			s.covHead[th] = int32(len(s.covNext) - 1)
			cnt++
		}
		s.coverCnt[i] = cnt
	}
	p.mprs = p.mprs[:0]
	for uncovered > 0 {
		best := -1
		bestCover := int32(0)
		for i, e := range s.liveSym {
			if s.chosen[i] {
				continue
			}
			cover := s.coverCnt[i]
			if cover > bestCover ||
				(cover == bestCover && cover > 0 && e.id < s.liveSym[best].id) {
				best, bestCover = i, cover
			}
		}
		if bestCover == 0 {
			break // remaining two-hops unreachable (stale info)
		}
		bestE := s.liveSym[best]
		s.chosen[best] = true
		p.mprs = append(p.mprs, bestE.id)
		// Self is never in uncov, so the alias's own entry is skipped here.
		for _, th := range bestE.nb.twoHop {
			if s.uncov.has(th) {
				s.uncov.clearBit(th)
				uncovered--
				for k := s.covHead[th]; k >= 0; k = s.covNext[k] {
					s.coverCnt[s.covOwner[k]]--
				}
			}
		}
	}
	// Keep at least one MPR whenever a symmetric neighbor exists, so
	// every node is advertised in some TC and remains reachable from
	// beyond two hops. liveSym is sorted, so the first entry is the
	// lowest id.
	if len(p.mprs) == 0 && len(s.liveSym) > 0 {
		p.mprs = append(p.mprs, s.liveSym[0].id)
	}
	clear(s.liveSym) // its entries point into p's neighbor table
}

// scratch is the working storage of one MPR selection or route rebuild.
// No node owns one: each call that needs it takes one from scratchPool and
// puts it back on return, so concurrent trials never share one and a node
// holds none between calls.
type scratch struct {
	queue []netstack.NodeID // BFS queue, popped by head index
	// liveSym holds the live symmetric neighbors of a selection run,
	// sorted by id; symBits and uncov are membership bitsets over node ids.
	liveSym []symNeighbor
	symBits bitset
	uncov   bitset
	// Greedy-cover state: coverCnt[i] is candidate liveSym[i]'s count of
	// still-uncovered two-hop neighbors, kept exact by decrementing along
	// covHead/covNext/covOwner — per-two-hop-id chains of the candidate
	// indices covering that id. covHead is indexed by node id and cleared
	// lazily (only the slots of ids in play), so a selection run costs
	// O(two-hop entries), not O(max id).
	coverCnt []int32
	covHead  []int32
	covNext  []int32
	covOwner []int32
	chosen   []bool
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// resizeInt32 returns s with length n, reallocating only on growth; the
// contents are unspecified (callers overwrite every slot).
func resizeInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// resizeBool returns s with length n and every slot false.
func resizeBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// bitset is a reusable membership set over dense node ids.
type bitset []uint64

// reset sizes the set to hold ids in [0, n) and clears it, reallocating
// only when n outgrows the previous capacity.
func (b *bitset) reset(n int) {
	words := (n + 63) / 64
	if cap(*b) < words {
		*b = make(bitset, words)
		return
	}
	*b = (*b)[:words]
	clear(*b)
}

func (b bitset) set(i netstack.NodeID)      { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bitset) clearBit(i netstack.NodeID) { b[i>>6] &^= 1 << (uint(i) & 63) }
func (b bitset) has(i netstack.NodeID) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// --- Routing table ----------------------------------------------------

// recompute rebuilds shortest paths over the link-state database (BFS on
// unit-cost links) — or proves it does not have to: with an unchanged
// structure version and the clock before the expiry horizon, the rebuild
// would consume exactly the inputs of the previous one.
func (p *Protocol) recompute() {
	if !p.dirty {
		return
	}
	p.dirty = false
	if p.routeVer == p.linkVer && p.node.Now() < p.routeHorizon {
		return
	}
	s := scratchPool.Get().(*scratch)
	p.rebuildRoutes(s)
	scratchPool.Put(s)
}

// rebuildRoutes refills the route table as of now, queueing in s.
func (p *Protocol) rebuildRoutes(s *scratch) {
	now := p.node.Now()
	p.rebuilds++
	clear(p.routes)
	horizon := forever

	// First ring: the live symmetric neighbors, visited in id order — the
	// BFS assigns each destination the first equal-cost route it reaches,
	// so tie-breaks must not depend on table order.
	queue := s.queue[:0]
	for i := range p.nbrs.Len() {
		if nb := p.nbrs.At(i); nb.sym && nb.expiry > now {
			queue = append(queue, p.nbrs.KeyAt(i))
			horizon = min(horizon, nb.expiry)
		}
	}
	slices.Sort(queue)
	for _, id := range queue {
		p.routes = fit(p.routes, id)
		p.routes[id] = route{nh: int32(id), hops: 1}
	}
	// Expand over TC-advertised links, popping by head index (re-slicing
	// the queue would keep the whole backing array pinned and re-grow it
	// every rebuild). Self has no entry; it is skipped by id instead.
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		te := p.topoOf(cur)
		if te.body == nil || te.expiry <= now {
			continue
		}
		horizon = min(horizon, te.expiry)
		via := p.routes[cur]
		for _, adv := range te.body.Advertised {
			if adv == p.self {
				continue
			}
			p.routes = fit(p.routes, adv)
			if r := &p.routes[adv]; r.hops == 0 {
				*r = route{nh: via.nh, hops: via.hops + 1}
				queue = append(queue, adv)
			}
		}
	}
	s.queue = queue
	p.routeVer = p.linkVer
	p.routeHorizon = horizon
}

// --- Data plane -------------------------------------------------------

// OriginateData implements netstack.Protocol.
func (p *Protocol) OriginateData(pkt *netstack.DataPacket) { p.forward(pkt) }

// RecvData implements netstack.Protocol.
func (p *Protocol) RecvData(_ netstack.NodeID, pkt *netstack.DataPacket) { p.forward(pkt) }

// forward sends pkt to its next hop on the current routes, or drops it.
func (p *Protocol) forward(pkt *netstack.DataPacket) {
	p.recompute()
	r := p.routeTo(pkt.Dst)
	if r.hops == 0 {
		p.node.DropData(pkt, netstack.DropNoRoute)
		return
	}
	p.node.ForwardData(netstack.NodeID(r.nh), pkt)
}

// DataFailed implements netstack.Protocol: proactive OLSR has no reactive
// repair; the link will age out of the neighbor set. Drop the neighbor
// immediately to react a little faster, as link-layer feedback is enabled
// for all protocols in the evaluation.
func (p *Protocol) DataFailed(to netstack.NodeID, pkt *netstack.DataPacket) {
	p.removeNeighbor(to)
	p.noteMPRs(p.node.Now())
	p.node.DropData(pkt, netstack.DropLinkLost)
}

// ControlFailed implements netstack.Protocol. The removal is not noted as
// an MPR input change — the selection stays as it was until the next note
// — so a pending selection is settled before the inputs move.
func (p *Protocol) ControlFailed(to netstack.NodeID, msg any) {
	p.settleMPRs()
	p.removeNeighbor(to)
}

// removeNeighbor drops to from the neighbor table on link-layer failure
// evidence, invalidating the caches only if a live symmetric link actually
// disappeared (removing an asymmetric or already-expired entry changes no
// computation input).
func (p *Protocol) removeNeighbor(to netstack.NodeID) {
	if nb := p.nbrs.Get(uint32(to)); nb != nil {
		if nb.sym && nb.expiry > p.node.Now() {
			p.linkVer++
		}
		p.nbrs.Delete(to)
	}
	p.dirty = true
}
