package radio

import (
	"fmt"
	"math"
	"math/bits"
	"time"

	"slr/internal/geo"
	"slr/internal/sim"
)

// grid is an incremental spatial index over stations: a sparse hash of
// square cells, cell side = the propagation model's maximum range, holding
// each station under a cached position.
//
// Exactness without re-indexing every move: a cached position is allowed
// to drift up to `slack` meters from the station's true position. Querying
// the cells within MaxRange+slack (`reach`) of a transmitter therefore
// yields a superset of every station truly within MaxRange, and the caller
// applies the exact per-link distance test to that superset — so the
// audible set is identical to an O(N) scan of every station (the oracle in
// grid_test.go), station for station. The cached positions also trim the
// superset before the caller sees it: a station cached beyond `reach` of
// the transmitter is, by the same drift bound, truly beyond MaxRange, so
// query leaves it out and nobody asks its mobility model where it is (the
// cells are squares around a disk; about half their stations go this way).
//
// The drift bound is maintained lazily, with no simulator events: cached
// positions are refreshed in one bulk pass per mobility epoch (epoch =
// slack / MaxSpeed, the time a fastest-possible node needs to travel slack
// meters), triggered by the first query past the epoch deadline. Every
// cache in an epoch is at most one epoch old, so drift stays under slack;
// between epoch boundaries a query touches the index not at all. The bulk
// pass replaces the per-query staleness ring the grid originally carried:
// same amortized work (each station re-cached once per epoch), none of the
// per-transmit age bookkeeping on the hot path.
//
// Candidates are returned in registration order so reception events are
// scheduled in exactly the order a scan of the registration list would
// produce — byte-identical simulation results, enforced by
// TestGridMatchesLinear.
// Ordering costs no sort: candidates are marked in a bitset over
// registration indices and read back in ascending-bit order.
type grid struct {
	cell    float64  // cell side, = Propagation.MaxRange()
	inv     float64  // 1 / cell
	reach   float64  // query radius: MaxRange + slack
	refresh sim.Time // max cache age (one epoch); 0 = stations never move
	// nextRefresh is the current epoch's deadline: the first query at or
	// past it re-caches every station (see maybeRefresh).
	nextRefresh sim.Time
	cells       map[int64][]*station
	marks       []uint64 // candidate bitset over registration indices
	cands       []int32  // scratch for query results (registration indices)
}

// gridSlackFraction is the allowed cache drift as a fraction of the cell
// side. Smaller means a tighter candidate search radius but more frequent
// cache refreshes; at 1/4 a 20 m/s node under a 275 m range refreshes
// every ~3.4 s of simulated time, a trivial cost next to per-transmit
// work, while the query disk shrinks from 1.5x to 1.25x the range.
const gridSlackFraction = 0.25

// newGrid sizes a grid for the given propagation reach and speed bound.
// maxSpeed 0 means stations are known never to move: no slack, no
// refreshing. A bound so large (or infinite: a teleporting Trace) that the
// epoch rounds to no time at all panics — every query would re-cache every
// station.
func newGrid(maxRange, maxSpeed float64) *grid {
	g := &grid{
		cell:  maxRange,
		inv:   1 / maxRange,
		reach: maxRange,
		cells: make(map[int64][]*station),
	}
	if maxSpeed > 0 {
		slack := maxRange * gridSlackFraction
		g.reach = maxRange + slack
		g.refresh = sim.Time(slack / maxSpeed * float64(time.Second))
		if g.refresh <= 0 {
			panic(fmt.Sprintf("radio: MaxSpeed %.3f m/s leaves no refresh epoch over %.3f m of slack", maxSpeed, slack))
		}
	}
	return g
}

// cellKey packs the cell coordinates of p into one map key.
func (g *grid) cellKey(p geo.Point) int64 {
	cx := int32(math.Floor(p.X * g.inv))
	cy := int32(math.Floor(p.Y * g.inv))
	return int64(cx)<<32 | int64(uint32(cy))
}

// insert adds a newly registered station at its current position. The
// fresh cache is younger than the current epoch's bulk pass, so the drift
// bound holds for it until the next epoch like for everyone else.
func (g *grid) insert(st *station, pos geo.Point, nStations int) {
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
// expired: one bulk pass re-caching every station. Queries between epoch
// boundaries see caches at most one epoch (refresh) old, which bounds
// drift to slack meters and keeps the reach-disk superset sound.
func (g *grid) maybeRefresh(stations []*station, now sim.Time) {
	if g.refresh == 0 || now < g.nextRefresh {
		return
	}
	g.refreshAll(stations, now)
}

// refreshAll re-caches every station's position and opens a fresh epoch
// ending one refresh interval from now.
func (g *grid) refreshAll(stations []*station, now sim.Time) {
	for _, st := range stations {
		g.move(st, st.mob.Position(now))
	}
	g.nextRefresh = now + g.refresh
}

// query returns the registration indices of every station whose cached
// position is within reach of pos — a superset of the stations truly
// within MaxRange of it, since no cache has drifted more than reach minus
// MaxRange — sorted ascending, i.e. in registration order. Cells
// overlapping the bounding box of the search disk but not the disk itself
// are skipped outright (the corner cells, ~1/4 of the box); of the stations
// in the remaining cells about half are cached outside the disk, and
// dropping those here spares the caller a mobility-model call apiece. The
// caller must apply the exact distance test; the slice is scratch, valid
// until the next query.
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
				g.marks[st.idx>>6] |= in << (uint(st.idx) & 63)
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
