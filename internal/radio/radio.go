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
// Audible-set lookup walks the sender's hearer list (see Channel.hearers),
// the only audibility path: the stations that could come within their
// link's range of the sender before the current mobility epoch ends, each
// with that range. Who can be in range changes only as fast as stations
// move, so the spatial grid (see grid) and the propagation model are asked
// once per sender per epoch, when the list is built from cached positions;
// Params.MaxSpeed bounds how far those drift. Per frame an entry is
// rejected on its cached position without asking its mobility model where
// it is, and the survivors take the exact test on their true positions.
// Remembering a link's range is sound because Propagation is pure by
// contract; the O(N) scan that calls LinkRange for every station survives
// as the oracle in this package's tests, and the two are identical hit for
// hit.
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
	// Seed feeds deterministic per-link fading draws (shadowing);
	// unit-disk ignores it.
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

// station is per-node channel state. It is kept within 128 bytes — two
// cache lines, which the allocator's size class then keeps aligned — with
// the fields audible reads for every list entry (and grid.query for every
// candidate) in the first. Its hearer list lives outside it, behind
// Channel.lists.
type station struct {
	id   NodeID // its index in Channel.stations, the deterministic iteration key
	slot int32  // index in its grid cell's bucket
	mob  mobility.Model
	// cachedPos is the position the spatial grid last cached (see grid).
	cachedPos geo.Point

	cellKey  int64 // the grid cell holding the station
	recv     Receiver
	active   []*rx    // receptions currently on the air at this station
	txUntil  sim.Time // end of this station's own transmission
	busyTill sim.Time // latest end of anything audible here
	navUntil sim.Time // virtual carrier sense (802.11 NAV)
}

// hearerList locates one sender's hearer list in the channel's arenas and
// names the grid generation it was built in; a list of any other generation
// is stale. The zero header is stale from the start: registering its
// station has already moved the generation off zero.
type hearerList struct {
	gen uint64
	// The peers, by id, are Channel.peers[off : off+n]; their cached
	// positions are read through Channel.stations, as grid.query reads
	// them.
	off, n int32
	// The links' ranges, asked of the propagation model once, when the
	// list was built, are Channel.ranges[lrs : lrs+n] — or, when every one
	// of them spans MaxRange (a uniform model's always do), are not stored
	// and lrs is -1.
	lrs int32
}

// Channel is the shared medium. It is not safe for concurrent use; a
// simulation run is single-threaded by construction.
type Channel struct {
	sim  *sim.Simulator
	p    Params
	prop Propagation
	// stations is indexed by id: Register takes ids 0, 1, 2, ... in
	// order, so id order is registration order, the deterministic
	// iteration key.
	stations []*station
	grid     *grid
	// lists holds every station's hearer list header, indexed by id;
	// peers and ranges are the arenas holding every list of generation
	// arenaGen, each list contiguous and exactly as long as it is (see
	// hearers).
	lists    []hearerList
	peers    []int32
	ranges   []float64
	arenaGen uint64
	maxRange float64         // prop.MaxRange(), fixed for the run
	hits     []hit           // scratch for audible-set results
	freeTx   []*transmission // transmission freelist (see transmission)

	// Stats counters.
	frames     uint64
	collisions uint64
	listBuilds uint64 // hearer lists built; read by tests and benchmarks
}

// Validate reports whether a channel can be built on p: its propagation
// model is registered and takes its params, and the spatial grid can be
// sized for the model's MaxRange and p.MaxSpeed (see newGrid). NewChannel
// panics exactly when Validate returns an error, so spec loading calls it
// to refuse such a scenario before any trial starts.
func Validate(p Params) error {
	_, _, err := newMedium(p)
	return err
}

// newMedium builds p's propagation model and the grid that indexes it.
func newMedium(p Params) (Propagation, *grid, error) {
	prop, err := NewPropagation(p)
	if err != nil {
		return nil, nil, err
	}
	g, err := newGrid(prop.MaxRange(), p.MaxSpeed)
	if err != nil {
		return nil, nil, err
	}
	return prop, g, nil
}

// NewChannel returns an empty channel bound to the simulator. Params that
// Validate refuses panic: spec loading validates them, so reaching here
// with such Params is a wiring bug.
func NewChannel(s *sim.Simulator, p Params) *Channel {
	prop, g, err := newMedium(p)
	if err != nil {
		panic(err)
	}
	return &Channel{
		sim:      s,
		p:        p,
		prop:     prop,
		grid:     g,
		maxRange: prop.MaxRange(),
	}
}

// Register attaches station id with its mobility model and frame
// receiver. Ids are registered in order, 0 first, so a station's id is
// its index in every table the channel keeps; an id registered twice or
// out of order panics: it is a wiring bug.
func (c *Channel) Register(id NodeID, m mobility.Model, r Receiver) {
	if n := len(c.stations); int(id) != n {
		panic(fmt.Sprintf("radio: station %d registered twice or out of order (next id is %d)", id, n))
	}
	st := &station{id: id, mob: m, recv: r}
	c.stations = append(c.stations, st)
	c.lists = append(c.lists, hearerList{})
	c.grid.insert(st, m.Position(c.sim.Now()), len(c.stations))
}

// station resolves id by index. Every entry point that takes a NodeID
// goes through it, so an id nobody registered (a wiring bug) panics by
// name instead of indexing out of range.
func (c *Channel) station(id NodeID) *station {
	if uint(id) < uint(len(c.stations)) {
		return c.stations[id]
	}
	panic(unregistered(id))
}

// unregistered is station's panic value. A call to fmt in station itself
// would put it, and with it Busy and IdleAt, over the inlining budget
// (make inline checks all three); as a value the message is only built if
// somebody prints it.
type unregistered NodeID

func (u unregistered) Error() string {
	return fmt.Sprintf("radio: unregistered station %d", NodeID(u))
}

// AirTime returns how long a frame of size bytes occupies the medium.
func (c *Channel) AirTime(size int) sim.Time {
	return c.p.PhyOverhead + sim.Span(float64(size*8)/c.p.BitRate*float64(time.Second))
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
// squared distances. It walks the sender's hearer list. An entry whose
// cached position is farther from pos than the link's range plus the drift
// bound at this instant is truly out of range — pos is exact, so only the
// peer's drift enters — and is rejected without asking its mobility model
// where it is; that is legal because a model's Position is a function of
// time alone. The rest take the exact test on their true position. Because
// LinkRange never exceeds MaxRange, passing it implies d2 <= MaxRange^2.
// The slice is scratch, valid until the next call.
func (c *Channel) audible(sender *station, pos geo.Point) []hit {
	now := c.sim.Now()
	c.grid.maybeRefresh(c.stations, now)
	if c.grid.refresh == 0 && pos != sender.cachedPos {
		panic(fmt.Sprintf("radio: station %d moved from %v to %v but Params.MaxSpeed is 0 (stations never move); pass a true speed bound",
			sender.id, sender.cachedPos, pos))
	}
	drift := c.grid.drift(now)
	c.hits = c.hits[:0]
	peers, ranges := c.hearers(sender)
	for i, id := range peers {
		st := c.stations[id]
		lr := c.maxRange
		if ranges != nil {
			lr = ranges[i]
		}
		if far := lr + drift; pos.Dist2(st.cachedPos) > far*far {
			continue
		}
		d2 := pos.Dist2(st.mob.Position(now))
		if d2 > lr*lr {
			continue
		}
		c.hits = append(c.hits, hit{st: st, d2: d2})
	}
	return c.hits
}

// hearers returns sender's hearer list for the grid's current generation,
// building it if the one it has is older: every peer, in registration
// order, that can come within its link's range of sender at some instant of
// the current mobility epoch. If |a(t) - b(t)| <= lr then, both caches
// having drifted at most slack, |a_c - b_c| <= lr + 2*slack; so the grid is
// queried once around sender's cached position at MaxRange + 2*slack
// (which spares the model every pair beyond it) and a candidate is kept iff
// it is cached within its own link's range plus 2*slack. Cutting at the
// link's range, not at MaxRange, is what keeps lists short under a fading
// model, where most links reach far less than the maximum.
//
// Lists of one generation sit back to back in two arenas, peers' indices
// in one and links' ranges in the other, which are emptied when the
// generation moves: a rebuild reuses their capacity, so steady state
// allocates nothing, and a list occupies exactly its length — 12 bytes an
// entry, or 4 when every link of the list spans MaxRange and the ranges
// (nil then) go unstored, which is every list of a uniform model and what
// keeps 5000 unit-disk stations' lists under a megabyte.
//
// The worst case is an epoch shorter than a sender's inter-frame gap (very
// fast movers): every frame then rebuilds its list from one query at
// MaxRange + 2*slack, where the per-frame query this replaced used
// MaxRange + slack. BenchmarkChannelTransmit's fast/N=500 tier is that
// case: 5.6 us per frame against 5.0 for the per-frame query under the
// same speed bound (medians of three alternating runs of 100000 frames on
// a shared host, 1.1x), most of either being the bulk re-cache such a
// bound forces on every frame; under the usual 20 m/s bound, where a list
// there serves three or four frames, the same harness (grid/N=500) read
// 1.55 us before the lists and 1.25 with them.
func (c *Channel) hearers(sender *station) (peers []int32, ranges []float64) {
	l := &c.lists[sender.id]
	if l.gen != c.grid.gen {
		c.buildHearers(sender, l)
	}
	peers = c.peers[l.off : l.off+l.n]
	if l.lrs >= 0 {
		ranges = c.ranges[l.lrs : l.lrs+l.n]
	}
	return peers, ranges
}

// buildHearers builds sender's list for the current generation at the end
// of the arenas and points l at it.
func (c *Channel) buildHearers(sender *station, l *hearerList) {
	if c.arenaGen != c.grid.gen {
		c.peers, c.ranges, c.arenaGen = c.peers[:0], c.ranges[:0], c.grid.gen
	}
	c.listBuilds++
	off, lrs := len(c.peers), len(c.ranges)
	twoSlack := 2 * c.grid.slack
	uniform := true
	for _, id := range c.grid.query(sender.cachedPos) {
		st := c.stations[id]
		if st == sender {
			continue
		}
		lr := c.prop.LinkRange(sender.id, st.id)
		if far := lr + twoSlack; sender.cachedPos.Dist2(st.cachedPos) > far*far {
			continue
		}
		c.peers = append(c.peers, id)
		c.ranges = append(c.ranges, lr)
		uniform = uniform && lr == c.maxRange
	}
	if uniform {
		c.ranges, lrs = c.ranges[:lrs], -1
	}
	*l = hearerList{gen: c.grid.gen, off: int32(off), n: int32(len(c.peers) - off), lrs: int32(lrs)}
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
