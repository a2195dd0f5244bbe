package radio

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"slr/internal/geo"
	"slr/internal/mobility"
	"slr/internal/sim"
)

// oracle is the reference audibility path: the O(N) scan over every
// registered station that asks the propagation model about every link,
// which is what the channel did before it had a grid or a memo. The
// channel's audible must return the identical slice — same stations, same
// order, same float64 distances — so a run checked transmission by
// transmission against the oracle is byte-identical to one driven by it.
type oracle struct {
	t  *testing.T
	ch *Channel
	// prop is a second instance of the channel's model: pure, so it
	// answers as the channel's own does, and uncounted, so the oracle's
	// questions do not show up in a countingProp.
	prop Propagation
	// checks counts the comparisons made, inMax the stations they found
	// within MaxRange of the sender: the links the channel had to resolve.
	checks, inMax int
}

func newOracle(t *testing.T, ch *Channel) *oracle {
	t.Helper()
	prop, err := NewPropagation(ch.p)
	if err != nil {
		t.Fatal(err)
	}
	return &oracle{t: t, ch: ch, prop: prop}
}

// audible is the linear scan.
func (o *oracle) audible(sender *station, pos geo.Point) []hit {
	now := o.ch.sim.Now()
	max := o.prop.MaxRange()
	var out []hit
	for _, st := range o.ch.byIdx {
		if st == sender {
			continue
		}
		d2 := pos.Dist2(st.mob.Position(now))
		if d2 <= max*max {
			o.inMax++
		}
		if lr := o.prop.LinkRange(sender.id, st.id); d2 > lr*lr {
			continue
		}
		out = append(out, hit{st: st, d2: d2})
	}
	return out
}

// check compares the channel's audible set for a transmission from id
// right now with the oracle's, and returns it as ids.
func (o *oracle) check(id NodeID) []NodeID {
	o.t.Helper()
	sender := o.ch.station(id)
	pos := sender.mob.Position(o.ch.sim.Now())
	want := o.audible(sender, pos)
	got := o.ch.audible(sender, pos)
	if len(got) != len(want) {
		o.t.Fatalf("t=%v sender %d: channel hears %d stations, oracle %d", o.ch.sim.Now(), id, len(got), len(want))
	}
	ids := make([]NodeID, len(got))
	for i := range got {
		if got[i] != want[i] {
			o.t.Fatalf("t=%v sender %d hit %d: channel (station %d, d2 %v), oracle (station %d, d2 %v)",
				o.ch.sim.Now(), id, i, got[i].st.id, got[i].d2, want[i].st.id, want[i].d2)
		}
		ids[i] = got[i].st.id
	}
	o.checks++
	return ids
}

// transmit checks the audible set, then puts the frame on the air.
func (o *oracle) transmit(f *Frame) {
	o.t.Helper()
	o.check(f.From)
	o.ch.Transmit(f)
}

// register adds n more stations moving per spec, each on its own rng
// stream derived from its id.
func register(t *testing.T, ch *Channel, n int, terrain geo.Terrain, spec mobility.Spec) {
	t.Helper()
	for i := 0; i < n; i++ {
		id := NodeID(len(ch.byIdx))
		m, err := mobility.Build(terrain, rand.New(rand.NewSource(int64(1000+id))), spec)
		if err != nil {
			t.Fatal(err)
		}
		ch.Register(id, m, nil)
	}
}

// waypoint is the mover the grid tests use: constant motion at 1..25 m/s.
var waypoint = mobility.Spec{Model: "waypoint", MinSpeed: 1, MaxSpeed: 25}

// mobileParams is the grid tests' channel: 250 m nominal range, the
// movers' speed bound, the given fading model.
func mobileParams(prop PropSpec, seed int64) Params {
	p := DefaultParams()
	p.Range = 250
	p.MaxSpeed = waypoint.MaxSpeed
	p.Propagation = prop
	p.Seed = seed
	return p
}

// driveRandomTraffic schedules count oracle-checked broadcasts from random
// senders among the first n stations at random times in [from, from+dur),
// all derived from one seeded rng.
func driveRandomTraffic(s *sim.Simulator, o *oracle, n, count int, from, dur sim.Time, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < count; i++ {
		at := from + sim.Time(rng.Int63n(int64(dur)))
		sender := NodeID(rng.Intn(n))
		seq := uint32(i)
		s.At(at, func() {
			o.transmit(&Frame{From: sender, To: Broadcast, Kind: Data, Size: 128, Seq: seq})
		})
	}
}

// propName names a PropSpec for subtests.
func propName(p PropSpec) string {
	if p.Model == "" {
		return "unit-disk"
	}
	return p.Model
}

// TestGridMatchesLinear is the regression test for the grid's exactness:
// over a randomized mobile broadcast workload spanning many refresh
// epochs, every transmission's audible set equals the linear oracle's,
// for every propagation model. It also pins what the channel asks of the
// model: under unit-disk exactly one LinkRange per station within
// MaxRange, under a fading model (60 stations fit any memo) a small
// fraction of that.
func TestGridMatchesLinear(t *testing.T) {
	const n = 60
	terrain := geo.Terrain{Width: 1500, Height: 900}
	for _, prop := range []PropSpec{{}, {Model: "shadowing"}, {Model: "rayleigh"}} {
		t.Run(propName(prop), func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				s := sim.New(seed)
				ch := NewChannel(s, mobileParams(prop, seed))
				cp := count(ch)
				register(t, ch, n, terrain, waypoint)
				o := newOracle(t, ch)
				driveRandomTraffic(s, o, n, 600, 0, 600*time.Second, seed+7)
				s.Run()
				if o.checks != 600 || o.inMax == 0 || ch.Frames() != 600 {
					t.Fatalf("seed %d: %d checks, %d stations in range, %d frames", seed, o.checks, o.inMax, ch.Frames())
				}
				// The channel resolves every transmission twice: once
				// for the check, once to transmit.
				if uniform := prop.Model == ""; uniform && cp.n != 2*o.inMax || !uniform && cp.n*4 > o.inMax {
					t.Fatalf("seed %d: %d LinkRange calls for 2x%d links within MaxRange", seed, cp.n, o.inMax)
				}
			}
		})
	}
}

// TestGridNeighborsMatchesLinear verifies the Neighbors query agrees with
// the oracle as stations move.
func TestGridNeighborsMatchesLinear(t *testing.T) {
	const n = 40
	s := sim.New(1)
	ch := NewChannel(s, mobileParams(PropSpec{}, 1))
	register(t, ch, n, geo.Terrain{Width: 1200, Height: 800}, waypoint)
	o := newOracle(t, ch)
	for step := 0; step < 40; step++ {
		s.RunUntil(sim.Time(step) * 10 * time.Second)
		for id := NodeID(0); id < n; id++ {
			want := o.check(id)
			if got := ch.Neighbors(id); !slices.Equal(got, want) {
				t.Fatalf("t=%v node %d: Neighbors %v, oracle %v", s.Now(), id, got, want)
			}
		}
	}
}

// TestGridLateRegistrationMatchesLinear verifies stations registered
// after the simulation has been running (several refresh epochs deep) are
// still refreshed correctly: the late insert must join the bulk refresh
// pass, or it silently drifts past the slack bound.
func TestGridLateRegistrationMatchesLinear(t *testing.T) {
	const n, late = 40, 10
	terrain := geo.Terrain{Width: 1500, Height: 900}
	s := sim.New(1)
	ch := NewChannel(s, mobileParams(PropSpec{}, 1))
	register(t, ch, n, terrain, waypoint)
	o := newOracle(t, ch)
	// Burn through refresh epochs with traffic, register the late cohort,
	// then drive traffic that reaches it.
	driveRandomTraffic(s, o, n, 600, 0, 200*time.Second, 5)
	s.At(100*time.Second, func() { register(t, ch, late, terrain, waypoint) })
	driveRandomTraffic(s, o, n+late, 300, 100*time.Second+1, 300*time.Second, 6)
	s.Run()
	heard := 0
	for _, st := range ch.byIdx[n:] {
		if st.busyTill > 0 {
			heard++
		}
	}
	if o.checks != 900 || heard == 0 {
		t.Fatalf("%d checks, %d of %d late stations ever heard a frame", o.checks, heard, late)
	}
}

// countingProp wraps a channel's propagation model to observe how the
// channel uses it: how often (callCounter.n), how often per directed link,
// and whether it is ever asked about a pair farther apart than MaxRange.
type countingProp struct {
	callCounter
	ch     *Channel
	asked  map[[2]NodeID]int
	beyond int // calls for a pair more than MaxRange apart
}

func count(ch *Channel) *countingProp {
	cp := &countingProp{callCounter: callCounter{Propagation: ch.prop}, ch: ch, asked: make(map[[2]NodeID]int)}
	ch.prop = cp
	return cp
}

func (cp *countingProp) LinkRange(a, b NodeID) float64 {
	if cp.asked != nil {
		cp.asked[[2]NodeID{a, b}]++
	}
	if max := cp.MaxRange(); cp.ch.Position(a).Dist2(cp.ch.Position(b)) > max*max {
		cp.beyond++
	}
	return cp.callCounter.LinkRange(a, b)
}

// repeats returns how many calls asked about a directed link already
// asked about. Under a fading model that is a memo eviction (or a link
// seen before its station had a memo).
func (cp *countingProp) repeats() int {
	return cp.n - len(cp.asked)
}

// TestMemoMatchesOracle is the property test for the link-range memo: on a
// terrain dense enough that a sender's in-range set exceeds its memo (so
// entries are evicted and re-fetched all run long), with movers, late
// registration, and every propagation model, each audible set equals the
// oracle's; the model is never asked about a pair beyond MaxRange; a
// uniform model allocates no memo and a fading one evicts. (How much the
// memo saves when the in-range set fits it is TestGridMatchesLinear's to
// assert; here nearly every slot is contended.)
func TestMemoMatchesOracle(t *testing.T) {
	const n, late = 3*memoSize + 32, 40
	terrain := geo.Terrain{Width: 600, Height: 600}
	city := mobility.Spec{Model: "manhattan", MinSpeed: 1, MaxSpeed: 25, Pause: time.Second}
	drift := mobility.Spec{Model: "gauss-markov", MinSpeed: 1, MaxSpeed: 25}
	for _, tc := range []struct {
		prop PropSpec
		mob  mobility.Spec
	}{
		{PropSpec{}, waypoint},
		{PropSpec{Model: "shadowing"}, waypoint},
		{PropSpec{Model: "rayleigh"}, waypoint},
		{PropSpec{Model: "shadowing"}, drift},
		{PropSpec{Model: "rayleigh"}, city},
	} {
		t.Run(propName(tc.prop)+"/"+tc.mob.Model, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				s := sim.New(seed)
				ch := NewChannel(s, mobileParams(tc.prop, seed))
				cp := count(ch)
				register(t, ch, n, terrain, tc.mob)
				o := newOracle(t, ch)
				driveRandomTraffic(s, o, n, 200, 0, 300*time.Second, seed+7)
				s.At(100*time.Second, func() { register(t, ch, late, terrain, tc.mob) })
				driveRandomTraffic(s, o, n+late, 100, 100*time.Second+1, 200*time.Second, seed+8)
				s.Run()

				if o.checks != 300 || o.inMax < o.checks*memoSize {
					t.Fatalf("seed %d: %d checks with %d stations within MaxRange in all; want more than the memo's %d each",
						seed, o.checks, o.inMax, memoSize)
				}
				if cp.beyond != 0 {
					t.Fatalf("seed %d: LinkRange asked about %d pairs beyond MaxRange", seed, cp.beyond)
				}
				memos := 0
				for _, st := range ch.byIdx {
					if st.memo != nil {
						memos++
					}
				}
				if tc.prop.Model == "" {
					if memos != 0 {
						t.Fatalf("seed %d: unit-disk allocated %d memos", seed, memos)
					}
					continue
				}
				if memos == 0 || cp.repeats() == 0 {
					t.Fatalf("seed %d: %d memos, %d repeated LinkRange calls; the memo never evicted", seed, memos, cp.repeats())
				}
			}
		})
	}
}

// TestTransmitSteadyStateAllocs verifies that once every station has
// transmitted (memos, transmission pool and event pool are warm) a
// transmission and its receptions allocate nothing under a fading model,
// evictions included.
func TestTransmitSteadyStateAllocs(t *testing.T) {
	const n = 2 * memoSize
	s := sim.New(1)
	p := DefaultParams()
	p.Propagation = PropSpec{Model: "shadowing"}
	p.Seed = 1
	ch := NewChannel(s, p)
	register(t, ch, n, geo.Terrain{Width: 600, Height: 600}, mobility.Spec{Model: "static"})
	cp := count(ch)
	f := &Frame{To: Broadcast, Kind: Data, Size: 64}
	next := 0
	step := func() {
		f.From = NodeID(next % n)
		next++
		ch.Transmit(f)
		s.RunUntil(s.Now() + 2*time.Millisecond)
	}
	for i := 0; i < 2*n; i++ {
		step()
	}
	cp.n, cp.asked = 0, nil // a growing map would be the wrapper's allocation
	if avg := testing.AllocsPerRun(n, step); avg != 0 {
		t.Fatalf("steady-state Transmit allocates %v objects per frame, want 0", avg)
	}
	if cp.n == 0 {
		t.Fatal("no LinkRange call in the measured window: the memo was never evicted, so eviction allocs went unmeasured")
	}
}

// TestGridStaticStations verifies the grid works with MaxSpeed 0: no
// refresh machinery, exact lookups.
func TestGridStaticStations(t *testing.T) {
	s, ch, recs := build(t, 0, 50, 250)
	if ch.grid.refresh != 0 || ch.grid.reach != 100 {
		t.Fatalf("static grid has refresh %v, reach %v; want 0, 100", ch.grid.refresh, ch.grid.reach)
	}
	ch.Transmit(&Frame{From: 0, To: Broadcast, Kind: Data, Size: 100, Seq: 9})
	s.Run()
	if len(recs[1].frames) != 1 {
		t.Fatalf("in-range station decoded %d frames, want 1", len(recs[1].frames))
	}
	if len(recs[2].frames) != 0 {
		t.Fatalf("out-of-range station decoded %d frames, want 0", len(recs[2].frames))
	}
}
