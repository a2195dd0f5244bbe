// Package radio models the shared wireless channel: pluggable binary
// propagation (unit-disk by default, per-link fading models via the
// propagation registry), half-duplex stations, and collision-on-overlap
// reception.
//
// The model corresponds to the physical layer the paper's GloMoSim setup
// provides to its 802.11 MAC: a 2 Mbps channel where a frame is received by
// every station within link range of the sender unless another audible
// transmission overlaps it in time at that receiver (including the
// hidden-terminal case) or the receiver itself is transmitting.
//
// Audible-set lookup is O(neighbors) through an incremental spatial grid
// index (see grid), the only audibility path: Params.MaxSpeed bounds how
// far the grid's cached positions drift. A station is rejected as cheaply
// as possible — by the grid on its cached position, then on its exact
// distance against MaxRange — and only the remainder consult the
// propagation model, at most once per link while the link stays in the
// sender's memo (see station.memo). That cache is sound because
// Propagation is pure by contract; the O(N) scan that calls LinkRange
// directly survives as the oracle in this package's tests, and the two are
// identical hit for hit.
//
// Propagation delay is zero, so every reception of a frame ends at the
// same instant: a transmission costs the kernel one end-of-air event, not
// one per hearer, and that event settles the frame's receptions one after
// another in registration order (see transmission).
package radio

import (
	"fmt"
	"math"
	"time"

	"slr/internal/geo"
	"slr/internal/mobility"
	"slr/internal/sim"
)

// NodeID identifies a station. IDs are small non-negative integers assigned
// by the scenario; Broadcast is the wildcard destination.
type NodeID int

// Broadcast is the destination of link-layer broadcast frames.
const Broadcast NodeID = -1

// FrameKind distinguishes MAC frame types on the air.
type FrameKind uint8

// Frame kinds.
const (
	Data FrameKind = iota + 1
	Ack
	Rts
	Cts
)

// Frame is a link-layer frame in flight.
type Frame struct {
	From NodeID
	To   NodeID // Broadcast or a unicast destination
	Kind FrameKind
	Seq  uint32 // MAC sequence number, used for ACK matching and dedup
	Size int    // bytes, including MAC framing
	// Dur is the 802.11 duration field: how long the medium remains
	// reserved after this frame ends. Overhearers load it into their
	// NAV (virtual carrier sense).
	Dur sim.Time
	// Payload is opaque to the channel; the network layer owns it.
	Payload any
}

// Receiver is the upper layer (the MAC) notified of decodable frames.
// The channel delivers every frame a station can decode, including frames
// addressed elsewhere; filtering is the MAC's job.
type Receiver interface {
	OnFrame(f *Frame)
}

// Params configures the channel.
type Params struct {
	// Range is the transmission (and interference) radius in meters.
	Range float64
	// BitRate is the channel rate in bits per second.
	BitRate float64
	// PhyOverhead is the fixed per-frame preamble/PLCP time.
	PhyOverhead sim.Time
	// CaptureRatio models physical capture: a frame survives an
	// overlapping transmission whose sender is at least CaptureRatio
	// times farther from the receiver (the distance form of a 10 dB SNR
	// threshold under two-ray d^-4 pathloss: 10^(10/40) ≈ 1.78, as in
	// the GloMoSim/ns-2 radio models). Zero disables capture: any
	// overlap corrupts.
	CaptureRatio float64
	// Propagation selects a registered propagation model; the zero
	// value is unit-disk at Range, the paper's radio.
	Propagation PropSpec
	// Seed feeds deterministic per-link fading draws (shadowing,
	// rayleigh); unit-disk ignores it.
	Seed int64
	// MaxSpeed is a hard upper bound on any station's speed in m/s. It
	// lets the spatial grid bound how far cached positions drift between
	// refreshes; mobility models built from a mobility.Spec guarantee
	// it. Zero means stations never move: a caller that registers movers
	// must pass a true bound, and a station caught away from its cached
	// position under a zero bound panics.
	MaxSpeed float64
}

// DefaultParams matches the paper's setup: 2 Mbps channel and a ~275 m
// nominal radio range with an 802.11-like 192 us preamble.
func DefaultParams() Params {
	return Params{
		Range:        275,
		BitRate:      2e6,
		PhyOverhead:  192 * time.Microsecond,
		CaptureRatio: 1.78,
	}
}

// rx tracks one in-progress reception at a station. It lives by value in
// its transmission's record; the station's active list points at it there
// for as long as the frame is on the air.
type rx struct {
	st        *station // receiving station
	corrupted bool
	// dist is the sender-receiver distance at transmission start, used
	// for the capture comparison.
	dist float64
}

// transmission is one frame on the air: its receptions in registration
// order and the single kernel event that ends them all. Records are pooled
// per Channel — a dozen or more stations hear every frame of a paper-shaped
// run, so a reception is the hottest object there is — and a record keeps
// its rxs capacity and its closure (built once, capturing only the record)
// across lives, which is what makes a steady-state Transmit allocate
// nothing. rxs is sized before the first address into it is taken and
// never grows while the frame is on the air, and the record goes back to
// the freelist only after endOfAir has walked all of it, so a Transmit
// made from inside that walk can neither move nor be handed the receptions
// still being settled.
type transmission struct {
	frame *Frame
	rxs   []rx
	done  func() // calls endOfAir(transmission); allocated once per record
}

// station is per-node channel state. It is kept to 128 bytes — two cache
// lines, which the allocator's size class then keeps aligned — with the
// fields audible and grid.query read for every candidate in the first.
type station struct {
	id   NodeID
	idx  int32 // registration order, the deterministic iteration key
	slot int32 // index in its grid cell's bucket
	mob  mobility.Model
	// cachedPos is the position the spatial grid last cached (see grid).
	cachedPos geo.Point
	// memo caches squared link ranges from this station, direct-mapped on
	// the peer's registration index (see linkRange2). nil until a link
	// from this station turns out not to span MaxRange.
	memo *[memoSize]memoEntry

	cellKey  int64 // the grid cell holding the station
	recv     Receiver
	active   []*rx    // receptions currently on the air at this station
	txUntil  sim.Time // end of this station's own transmission
	busyTill sim.Time // latest end of anything audible here
	navUntil sim.Time // virtual carrier sense (802.11 NAV)
}

// memoSize is the number of links a station remembers, a power of two.
// Measured on slrbench's city-500, seed 2 (about 80 of 500 peers inside
// MaxRange of a sender, drifting), of 44.3 M uncached LinkRange calls 64
// entries leave 9.9 M, 128 leave 5.8 M, 256 leave 2.4 M, at 4 KiB per
// station. (512 leave 0.03 M only because every one of 500 peers then has
// a slot to itself, which no larger network would see.)
const memoSize = 256

// memoEntry is one remembered link: the peer's registration index plus
// one (so the zero entry is empty) and its squared range.
type memoEntry struct {
	peer int32
	lr2  float64
}

// Channel is the shared medium. It is not safe for concurrent use; a
// simulation run is single-threaded by construction.
type Channel struct {
	sim      *sim.Simulator
	p        Params
	prop     Propagation
	stations map[NodeID]*station
	// byID is a dense lookup table over non-negative IDs (the scenario
	// assigns 0..N-1): the per-frame entry points (Busy, IdleAt, SetNAV,
	// Transmit) resolve stations without hashing. Sparse or exotic IDs
	// fall back to the map.
	byID   []*station
	byIdx  []*station // stations in registration order, the deterministic iteration key
	grid   *grid
	hits   []hit           // scratch for audible-set results
	freeTx []*transmission // transmission freelist (see transmission)
	// maxRange is prop.MaxRange(), fixed for the run; maxRange2 its square.
	maxRange, maxRange2 float64

	// Stats counters.
	frames     uint64
	collisions uint64
}

// NewChannel returns an empty channel bound to the simulator. An
// unregistered Params.Propagation model or a model without a positive
// MaxRange panics: spec loading validates model names and range_m, so
// reaching here with either is a wiring bug.
func NewChannel(s *sim.Simulator, p Params) *Channel {
	prop, err := NewPropagation(p)
	if err != nil {
		panic(err)
	}
	max := prop.MaxRange()
	if !(max > 0) {
		panic(fmt.Sprintf("radio: propagation MaxRange %.3f m (Params.Range %.3f m) must be positive", max, p.Range))
	}
	return &Channel{
		sim:       s,
		p:         p,
		prop:      prop,
		stations:  make(map[NodeID]*station),
		grid:      newGrid(max, p.MaxSpeed),
		maxRange:  max,
		maxRange2: max * max,
	}
}

// Register attaches a station with its mobility model and frame receiver.
// Registering the same id twice panics: it is a wiring bug.
func (c *Channel) Register(id NodeID, m mobility.Model, r Receiver) {
	if _, dup := c.stations[id]; dup {
		panic(fmt.Sprintf("radio: station %d registered twice", id))
	}
	st := &station{id: id, idx: int32(len(c.byIdx)), mob: m, recv: r}
	c.stations[id] = st
	c.byIdx = append(c.byIdx, st)
	if id >= 0 {
		for int(id) >= len(c.byID) {
			c.byID = append(c.byID, nil)
		}
		c.byID[id] = st
	}
	c.grid.insert(st, m.Position(c.sim.Now()), len(c.byIdx))
}

// station resolves id through the dense table, falling back to the map
// for IDs outside it. Every entry point that takes a NodeID goes through
// it, so an id nobody registered (a wiring bug) panics by name instead of
// dereferencing nil.
func (c *Channel) station(id NodeID) *station {
	if id >= 0 && int(id) < len(c.byID) {
		if st := c.byID[id]; st != nil {
			return st
		}
	}
	if st := c.stations[id]; st != nil {
		return st
	}
	panic(unregistered(id))
}

// unregistered is station's panic value. A call to fmt in station itself
// would put it, and with it Busy and IdleAt, over the inlining budget; as a
// value the message is only built if somebody prints it.
type unregistered NodeID

func (u unregistered) Error() string {
	return fmt.Sprintf("radio: unregistered station %d", NodeID(u))
}

// AirTime returns how long a frame of size bytes occupies the medium.
func (c *Channel) AirTime(size int) sim.Time {
	return c.p.PhyOverhead + sim.Time(float64(size*8)/c.p.BitRate*float64(time.Second))
}

// Busy reports whether station id senses the medium busy right now:
// physical carrier sense (any audible transmission, or its own) or virtual
// carrier sense (NAV).
func (c *Channel) Busy(id NodeID) bool {
	st := c.station(id)
	now := c.sim.Now()
	return st.txUntil > now || len(st.active) > 0 || st.navUntil > now
}

// SetNAV reserves the medium at station id until `until` per an overheard
// duration field; shorter reservations never shrink the NAV.
func (c *Channel) SetNAV(id NodeID, until sim.Time) {
	st := c.station(id)
	if until > st.navUntil {
		st.navUntil = until
	}
}

// IdleAt returns the earliest time at or after now when station id will
// sense the medium idle, based on currently known transmissions and NAV.
func (c *Channel) IdleAt(id NodeID) sim.Time {
	st := c.station(id)
	return max(c.sim.Now(), st.txUntil, st.busyTill, st.navUntil)
}

// Transmitting reports whether station id is transmitting right now.
func (c *Channel) Transmitting(id NodeID) bool {
	return c.station(id).txUntil > c.sim.Now()
}

// Position returns station id's current position.
func (c *Channel) Position(id NodeID) geo.Point {
	return c.station(id).mob.Position(c.sim.Now())
}

// Neighbors returns the stations currently within link range of id, in
// registration order. It exists for scenario setup and tests; protocols
// must discover neighbors over the air.
func (c *Channel) Neighbors(id NodeID) []NodeID {
	self := c.station(id)
	pos := self.mob.Position(c.sim.Now())
	var out []NodeID
	for _, h := range c.audible(self, pos) {
		out = append(out, h.st.id)
	}
	return out
}

// hit is one audible-set entry: a receiving station and the exact squared
// sender-receiver distance.
type hit struct {
	st *station
	d2 float64
}

// audible returns the stations that can hear a transmission from sender at
// pos (its exact position) right now, in registration order, with exact
// squared distances. The grid proposes every station cached within its
// search radius of pos, which includes every station truly within MaxRange;
// a candidate is then dropped if its exact distance exceeds MaxRange, which
// bounds every link, and only then asked about its own link (linkRange2).
// The slice is scratch, valid until the next call.
func (c *Channel) audible(sender *station, pos geo.Point) []hit {
	now := c.sim.Now()
	c.grid.maybeRefresh(c.byIdx, now)
	if c.grid.refresh == 0 && pos != sender.cachedPos {
		panic(fmt.Sprintf("radio: station %d moved from %v to %v but Params.MaxSpeed is 0 (stations never move); pass a true speed bound",
			sender.id, sender.cachedPos, pos))
	}
	c.hits = c.hits[:0]
	for _, idx := range c.grid.query(pos) {
		st := c.byIdx[idx]
		if st == sender {
			continue
		}
		d2 := pos.Dist2(st.mob.Position(now))
		if d2 > c.maxRange2 || d2 > c.linkRange2(sender, st) {
			continue
		}
		c.hits = append(c.hits, hit{st: st, d2: d2})
	}
	return c.hits
}

// linkRange2 returns the squared range of the link a-b: from a's memo when
// the link is there, from the propagation model (and into the memo,
// overwriting whichever link held the slot) when not. Propagation is pure,
// so what the memo holds or evicts cannot change a result, only how often
// the model is asked. A station gets a memo once one of its links returns
// something other than MaxRange; a uniform model (unit-disk) never does
// and pays one LinkRange call per in-range candidate, as before.
func (c *Channel) linkRange2(a, b *station) float64 {
	slot, tag := b.idx&(memoSize-1), b.idx+1
	if a.memo != nil && a.memo[slot].peer == tag {
		return a.memo[slot].lr2
	}
	lr := c.prop.LinkRange(a.id, b.id)
	lr2 := lr * lr
	if a.memo == nil {
		if lr == c.maxRange {
			return lr2
		}
		a.memo = new([memoSize]memoEntry)
	}
	a.memo[slot] = memoEntry{peer: tag, lr2: lr2}
	return lr2
}

// Frames returns the total number of transmissions started.
func (c *Channel) Frames() uint64 { return c.frames }

// Collisions returns the number of receptions corrupted by overlap.
func (c *Channel) Collisions() uint64 { return c.collisions }

// Transmit puts f on the air from station f.From, starting now. Receptions
// complete (or are found corrupted) one air-time later. The transmitting
// station cannot decode anything while sending (half-duplex), and any
// overlap of audible frames at a station corrupts all of them.
func (c *Channel) Transmit(f *Frame) {
	sender := c.station(f.From)
	now := c.sim.Now()
	air := c.AirTime(f.Size)
	end := now + air
	c.frames++

	// Half duplex: starting to transmit corrupts anything being received.
	for _, r := range sender.active {
		if !r.corrupted {
			r.corrupted = true
			c.collisions++
		}
	}
	if sender.txUntil < end {
		sender.txUntil = end
	}

	pos := sender.mob.Position(now)
	hits := c.audible(sender, pos)
	if len(hits) == 0 {
		return
	}
	t := c.allocTx(f, len(hits))
	for i, h := range hits {
		c.beginReception(&t.rxs[i], h.st, end, h.d2)
	}
	c.sim.At(end, t.done)
}

// allocTx takes a transmission record from the freelist, or builds a fresh
// one with its reusable end-of-air closure, and sizes it for n receptions.
func (c *Channel) allocTx(f *Frame, n int) *transmission {
	var t *transmission
	if k := len(c.freeTx); k > 0 {
		t = c.freeTx[k-1]
		c.freeTx[k-1] = nil
		c.freeTx = c.freeTx[:k-1]
	} else {
		t = &transmission{}
		t.done = func() { c.endOfAir(t) }
	}
	t.frame = f
	if cap(t.rxs) < n {
		t.rxs = make([]rx, n)
	}
	t.rxs = t.rxs[:n]
	return t
}

// beginReception starts reception r, a slot of its transmission's record,
// at st, of a frame sent from dist2 (squared) away and ending at end.
func (c *Channel) beginReception(r *rx, st *station, end sim.Time, dist2 float64) {
	*r = rx{st: st, dist: math.Sqrt(dist2)}
	// Overlapping receptions corrupt each other unless one captures: its
	// sender is CaptureRatio times closer than the interferer's.
	for _, other := range st.active {
		if !other.corrupted && !c.captures(other, r) {
			other.corrupted = true
			c.collisions++
		}
		if !r.corrupted && !c.captures(r, other) {
			r.corrupted = true
			c.collisions++
		}
	}
	// A station that is transmitting cannot decode.
	if st.txUntil > c.sim.Now() && !r.corrupted {
		r.corrupted = true
		c.collisions++
	}
	st.active = append(st.active, r)
	if st.busyTill < end {
		st.busyTill = end
	}
}

// captures reports whether reception r survives interference from other:
// r's sender must be CaptureRatio times closer than other's.
func (c *Channel) captures(r, other *rx) bool {
	if c.p.CaptureRatio <= 0 {
		return false
	}
	return other.dist >= c.p.CaptureRatio*r.dist
}

// endOfAir ends t's receptions one at a time, in registration order: each
// leaves its station's active set and only then, if still clean, is
// delivered. A receiver that transmits from OnFrame therefore finds the
// later hearers still receiving t, and the new frame and theirs corrupt
// each other — which is why corruption is read at each reception's turn
// and never up front.
func (c *Channel) endOfAir(t *transmission) {
	for i := range t.rxs {
		r := &t.rxs[i]
		st := r.st
		for j, other := range st.active {
			if other == r {
				last := len(st.active) - 1
				st.active[j] = st.active[last]
				st.active[last] = nil
				st.active = st.active[:last]
				break
			}
		}
		// A transmission that started while r was on the air has already
		// corrupted it (beginReception / Transmit handle both directions).
		if !r.corrupted && st.recv != nil {
			st.recv.OnFrame(t.frame)
		}
	}
	t.frame = nil
	c.freeTx = append(c.freeTx, t)
}
