package radio

import (
	"fmt"
	"math"
	"math/bits"

	"slr/internal/geo"
	"slr/internal/sim"
)

// grid is an incremental spatial index over stations: a sparse hash of
// square cells, cell side = the propagation model's maximum range, holding
// each station under a cached position. It is not asked per frame. The
// channel asks it once per sender per mobility epoch, to build that
// sender's hearer list (see Channel.hearers), and what it owns is what
// makes such a list sound for a whole epoch: the cached positions, the
// bound on how far they have drifted, and the generation that says when
// they were last re-taken.
//
// A cached position may drift up to `slack` meters from the station's true
// position. The bound is maintained lazily, with no simulator events:
// cached positions are refreshed in one bulk pass per mobility epoch
// (epoch = slack / MaxSpeed, the time a fastest-possible node needs to
// travel slack meters), triggered by the first transmission past the epoch
// deadline. Every cache in an epoch was taken at its start (a late
// registration's later still), so at time now no station is farther than
// drift(now) = MaxSpeed * (now - epochStart) <= slack from its cache. Two
// stations within a link's range of each other at any instant of the epoch
// are therefore cached within that range plus 2*slack of each other, which
// is the radius (`reach`, with the range at its maximum) the list build
// queries around the sender's own cached position.
//
// The generation counts everything that can make a list built from the
// caches stale: a bulk refresh, and a registration (the newcomer is in
// nobody's list). Lists carry the generation they were built in.
//
// Candidates are returned in registration order so receptions are begun in
// exactly the order a scan of the registration list would produce —
// byte-identical simulation results, enforced by TestGridMatchesLinear.
// Ordering costs no sort: candidates are marked in a bitset over
// registration indices and read back in ascending-bit order.
type grid struct {
	cell    float64  // cell side, = Propagation.MaxRange()
	inv     float64  // 1 / cell
	slack   float64  // bound on cache drift; 0 = stations never move
	reach   float64  // query radius: MaxRange + 2*slack
	speed   float64  // MaxSpeed, m/s
	refresh sim.Time // max cache age (one epoch); 0 = stations never move
	// epochStart is when the current epoch's bulk pass ran, nextRefresh
	// its deadline: the first transmission at or past it re-caches every
	// station (see maybeRefresh).
	epochStart, nextRefresh sim.Time
	gen                     uint64 // bumped by refreshAll and insert
	cells                   map[int64][]*station
	marks                   []uint64 // candidate bitset over registration indices
	cands                   []int32  // scratch for query results (registration indices)
}

// gridSlackFraction is the allowed cache drift as a fraction of the cell
// side. Smaller means shorter hearer lists (a list holds the peers cached
// within a link's range plus 2*slack, so its area goes from 4x to 2.25x the
// in-range disk between 1/2 and 1/4) but more frequent epochs, each of
// which re-caches every station and rebuilds every active sender's list; at
// 1/4 a 20 m/s bound under a 275 m range gives epochs of ~3.4 s of
// simulated time, tens to hundreds of frames per sender in the benchmarked
// runs.
const gridSlackFraction = 0.25

// newGrid sizes a grid for the given propagation reach and speed bound.
// maxSpeed 0 means stations are known never to move: no slack, no
// refreshing. It refuses a maxRange that is not finite and positive (the
// cells are sized from it), and a speed bound that leaves no epoch of
// whole nanoseconds that fits a sim.Time: one so large (or infinite: a
// teleporting Trace) that the epoch rounds to no time at all, when every
// transmission would re-cache every station, or one so small that it does
// not fit.
func newGrid(maxRange, maxSpeed float64) (*grid, error) {
	if !(maxRange > 0 && maxRange <= math.MaxFloat64) {
		return nil, fmt.Errorf("radio: propagation MaxRange %v m must be finite and positive", maxRange)
	}
	if !(maxSpeed >= 0) {
		return nil, fmt.Errorf("radio: MaxSpeed %v m/s must be >= 0", maxSpeed)
	}
	g := &grid{
		cell:  maxRange,
		inv:   1 / maxRange,
		reach: maxRange,
		speed: maxSpeed,
		cells: make(map[int64][]*station),
	}
	if maxSpeed > 0 {
		g.slack = maxRange * gridSlackFraction
		g.reach = maxRange + 2*g.slack
		// Truncated to whole nanoseconds, so an epoch is never longer
		// than slack / MaxSpeed and drift stays under slack with no
		// epsilon.
		epoch, err := sim.Seconds(g.slack / maxSpeed)
		if err != nil || epoch < 1 {
			return nil, fmt.Errorf("radio: MaxSpeed %v m/s leaves no refresh epoch over %v m of slack", maxSpeed, g.slack)
		}
		g.refresh = epoch
	}
	return g, nil
}

// drift bounds how far any station can be from its cached position at now:
// every cache is at least as young as the epoch, and nothing outruns
// MaxSpeed. Zero for stations that never move.
func (g *grid) drift(now sim.Time) float64 {
	return g.speed * (now - g.epochStart).Seconds()
}

// cellKey packs the cell coordinates of p into one map key.
func (g *grid) cellKey(p geo.Point) int64 {
	cx := int32(math.Floor(p.X * g.inv))
	cy := int32(math.Floor(p.Y * g.inv))
	return int64(cx)<<32 | int64(uint32(cy))
}

// insert adds a newly registered station at its current position. The
// fresh cache is younger than the current epoch's bulk pass, so the drift
// bound holds for it until the next epoch like for everyone else; the
// generation moves because no list built so far has the newcomer in it.
func (g *grid) insert(st *station, pos geo.Point, nStations int) {
	g.gen++
	st.cachedPos = pos
	st.cellKey = g.cellKey(pos)
	bucket := g.cells[st.cellKey]
	st.slot = int32(len(bucket))
	g.cells[st.cellKey] = append(bucket, st)
	if need := (nStations + 63) / 64; need > len(g.marks) {
		g.marks = append(g.marks, make([]uint64, need-len(g.marks))...)
	}
}

// move re-caches st's position, re-bucketing it if it crossed a cell edge.
func (g *grid) move(st *station, pos geo.Point) {
	st.cachedPos = pos
	key := g.cellKey(pos)
	if key == st.cellKey {
		return
	}
	// Swap-remove from the old bucket.
	old := g.cells[st.cellKey]
	last := old[len(old)-1]
	old[st.slot] = last
	last.slot = st.slot
	old[len(old)-1] = nil
	g.cells[st.cellKey] = old[:len(old)-1]

	st.cellKey = key
	bucket := g.cells[key]
	st.slot = int32(len(bucket))
	g.cells[key] = append(bucket, st)
}

// maybeRefresh starts a new mobility epoch when the current one has
// expired: one bulk pass re-caching every station. Transmissions between
// epoch boundaries see caches at most one epoch (refresh) old, which bounds
// drift to slack meters (see drift).
func (g *grid) maybeRefresh(stations []*station, now sim.Time) {
	if g.refresh == 0 || now < g.nextRefresh {
		return
	}
	g.refreshAll(stations, now)
}

// refreshAll re-caches every station's position and opens a fresh epoch,
// and generation, ending one refresh interval from now.
func (g *grid) refreshAll(stations []*station, now sim.Time) {
	for _, st := range stations {
		g.move(st, st.mob.Position(now))
	}
	g.epochStart = now
	g.nextRefresh = now + g.refresh
	g.gen++
}

// query returns the registration indices of every station whose cached
// position is within reach of pos, itself a cached position — a superset of
// the stations that come within MaxRange of pos's station at any instant of
// the epoch, since neither end drifts more than slack — sorted ascending,
// i.e. in registration order. Cells overlapping the bounding box of the
// search disk but not the disk itself are skipped outright (the corner
// cells, ~1/4 of the box); of the stations in the remaining cells about
// half are cached outside the disk and are dropped here. The slice is
// scratch, valid until the next query.
func (g *grid) query(pos geo.Point) []int32 {
	g.cands = g.cands[:0]
	cx0 := int32(math.Floor((pos.X - g.reach) * g.inv))
	cx1 := int32(math.Floor((pos.X + g.reach) * g.inv))
	cy0 := int32(math.Floor((pos.Y - g.reach) * g.inv))
	cy1 := int32(math.Floor((pos.Y + g.reach) * g.inv))
	r2 := g.reach * g.reach
	for cy := cy0; cy <= cy1; cy++ {
		// Distance from pos to the cell row's nearest y edge.
		dy := 0.0
		if lo := float64(cy) * g.cell; pos.Y < lo {
			dy = lo - pos.Y
		} else if hi := float64(cy+1) * g.cell; pos.Y > hi {
			dy = pos.Y - hi
		}
		for cx := cx0; cx <= cx1; cx++ {
			dx := 0.0
			if lo := float64(cx) * g.cell; pos.X < lo {
				dx = lo - pos.X
			} else if hi := float64(cx+1) * g.cell; pos.X > hi {
				dx = pos.X - hi
			}
			if dx*dx+dy*dy > r2 {
				continue // cell entirely outside the search disk
			}
			key := int64(cx)<<32 | int64(uint32(cy))
			for _, st := range g.cells[key] {
				// A mark bit computed, not branched on: which side of
				// the disk a cell's station falls is a coin toss the
				// branch predictor loses.
				var in uint64
				if pos.Dist2(st.cachedPos) <= r2 {
					in = 1
				}
				g.marks[st.id>>6] |= in << (uint(st.id) & 63)
			}
		}
	}
	for w, x := range g.marks {
		if x == 0 {
			continue
		}
		g.marks[w] = 0
		base := int32(w << 6)
		for x != 0 {
			g.cands = append(g.cands, base+int32(bits.TrailingZeros64(x)))
			x &= x - 1
		}
	}
	return g.cands
}
