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
// which is what the channel did before it had a grid or hearer lists. The
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
	// within MaxRange of the sender. builds counts the checks that made
	// the channel build the sender's hearer list, inBuild the stations
	// then cached within the build radius of the sender's cache: the links
	// such a build has to ask the model about.
	checks, inMax, builds, inBuild int
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
	for _, st := range o.ch.stations {
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
	before := o.ch.listBuilds
	got := o.ch.audible(sender, pos)
	if o.ch.listBuilds != before {
		o.builds++
		reach := o.ch.grid.reach
		for _, st := range o.ch.stations {
			if st != sender && sender.cachedPos.Dist2(st.cachedPos) <= reach*reach {
				o.inBuild++
			}
		}
	}
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
		id := NodeID(len(ch.stations))
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

// TestGridMatchesLinear is the regression test for the channel's
// exactness: over a randomized mobile broadcast workload spanning many
// refresh epochs, every transmission's audible set equals the linear
// oracle's, for every propagation model. It also pins what the channel
// asks of the model, which no longer depends on the model: one LinkRange
// per station cached within the build radius each time a hearer list is
// built, and nothing per frame. (Senders here transmit about once per
// epoch, the case in which the lists save nothing.)
func TestGridMatchesLinear(t *testing.T) {
	const n = 60
	terrain := geo.Terrain{Width: 1500, Height: 900}
	for _, prop := range []PropSpec{{}, {Model: "shadowing"}} {
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
				// The channel resolves every transmission twice, once for
				// the check and once to transmit, at the same instant: the
				// second walks the list the first built.
				if ch.listBuilds != uint64(o.builds) || o.builds == 0 || o.builds > o.checks {
					t.Fatalf("seed %d: %d list builds, %d of them in the %d checks", seed, ch.listBuilds, o.builds, o.checks)
				}
				if cp.n != o.inBuild || cp.beyond != 0 || cp.repeated != 0 {
					t.Fatalf("seed %d: %d LinkRange calls (%d beyond the build radius, %d repeated within a generation) for %d builds with %d stations in their radius",
						seed, cp.n, cp.beyond, cp.repeated, o.builds, o.inBuild)
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

// heardAFrame counts the stations among sts that a frame ever reached.
func heardAFrame(sts []*station) int {
	n := 0
	for _, st := range sts {
		if st.busyTill > 0 {
			n++
		}
	}
	return n
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
	heard := heardAFrame(ch.stations[n:])
	if o.checks != 900 || heard == 0 {
		t.Fatalf("%d checks, %d of %d late stations ever heard a frame", o.checks, heard, late)
	}
}

// countingProp wraps a channel's propagation model to observe how the
// channel uses it: how often (callCounter.n), whether it asks about a
// directed link twice within one grid generation, and whether it is ever
// asked about a pair cached farther apart than the list-build radius,
// MaxRange + 2*slack.
type countingProp struct {
	callCounter
	ch    *Channel
	gen   uint64             // the generation asked holds
	asked map[[2]NodeID]bool // directed links asked about in gen
	// repeated counts calls for a link already asked about in its
	// generation; a list holds the answer for as long as it lives, so
	// there should be none.
	repeated int
	beyond   int // calls for a pair cached beyond the build radius
}

func count(ch *Channel) *countingProp {
	cp := &countingProp{callCounter: callCounter{Propagation: ch.prop}, ch: ch, asked: make(map[[2]NodeID]bool)}
	ch.prop = cp
	return cp
}

func (cp *countingProp) LinkRange(a, b NodeID) float64 {
	if g := cp.ch.grid.gen; g != cp.gen {
		cp.gen = g
		clear(cp.asked)
	}
	if cp.asked[[2]NodeID{a, b}] {
		cp.repeated++
	}
	cp.asked[[2]NodeID{a, b}] = true
	if reach := cp.ch.grid.reach; cp.ch.station(a).cachedPos.Dist2(cp.ch.station(b).cachedPos) > reach*reach {
		cp.beyond++
	}
	return cp.callCounter.LinkRange(a, b)
}

// TestHearerListMatchesOracle is the property test for the hearer lists: on
// a terrain dense enough that a list runs to hundreds of entries, with
// movers, every propagation model, and a late registration — which lands
// mid-epoch, between two checks of the same twenty senders at the same
// instant, so a sender whose list predates the newcomers must hear them all
// the same — each audible set equals the oracle's. Within a generation
// the model is asked about no directed link twice, and never about a pair
// cached farther apart than the build radius.
func TestHearerListMatchesOracle(t *testing.T) {
	const n, late, dense = 800, 40, 256
	terrain := geo.Terrain{Width: 600, Height: 600}
	city := mobility.Spec{Model: "manhattan", MinSpeed: 1, MaxSpeed: 25, Pause: time.Second}
	drift := mobility.Spec{Model: "gauss-markov", MinSpeed: 1, MaxSpeed: 25}
	for _, tc := range []struct {
		prop PropSpec
		mob  mobility.Spec
	}{
		{PropSpec{}, waypoint},
		{PropSpec{Model: "shadowing"}, waypoint},
		{PropSpec{Model: "shadowing"}, drift},
		{PropSpec{Model: "shadowing"}, city},
	} {
		t.Run(propName(tc.prop)+"/"+tc.mob.Model, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				s := sim.New(seed)
				ch := NewChannel(s, mobileParams(tc.prop, seed))
				cp := count(ch)
				register(t, ch, n, terrain, tc.mob)
				o := newOracle(t, ch)
				driveRandomTraffic(s, o, n, 200, 0, 300*time.Second, seed+7)
				s.At(100*time.Second, func() {
					// Twenty senders whose lists are as fresh as can be
					// when the newcomers arrive, asked again right after.
					for id := NodeID(0); id < 20; id++ {
						o.check(id)
					}
					register(t, ch, late, terrain, tc.mob)
					for id := NodeID(0); id < 20; id++ {
						o.check(id)
					}
				})
				driveRandomTraffic(s, o, n+late, 100, 100*time.Second+1, 200*time.Second, seed+8)
				s.Run()

				heard := heardAFrame(ch.stations[n:])
				if o.checks != 340 || o.inMax < o.checks*dense || heard == 0 {
					t.Fatalf("seed %d: %d checks with %d stations within MaxRange in all (want more than %d each), %d of %d late stations ever heard a frame",
						seed, o.checks, o.inMax, dense, heard, late)
				}
				if cp.beyond != 0 || cp.repeated != 0 || cp.n != o.inBuild {
					t.Fatalf("seed %d: of %d LinkRange calls %d were for pairs cached beyond the build radius and %d repeated a link within a generation; %d builds had %d stations in their radius",
						seed, cp.n, cp.beyond, cp.repeated, o.builds, o.inBuild)
				}
			}
		})
	}
}

// TestHearerListAtEpochEdges checks every sender against the oracle at the
// last nanosecond of an epoch, when the per-frame drift margin is at its
// widest and the lists at their oldest, and at the first nanosecond of the
// next, when the margin is zero and every list is rebuilt.
func TestHearerListAtEpochEdges(t *testing.T) {
	const n = 200
	terrain := geo.Terrain{Width: 1000, Height: 1000}
	for _, prop := range []PropSpec{{}, {Model: "shadowing"}} {
		t.Run(propName(prop), func(t *testing.T) {
			s := sim.New(1)
			ch := NewChannel(s, mobileParams(prop, 1))
			register(t, ch, n, terrain, waypoint)
			o := newOracle(t, ch)
			checkAll := func(wantGen, wantBuilds uint64) {
				t.Helper()
				for id := NodeID(0); id < n; id++ {
					o.check(id)
				}
				if ch.grid.gen != wantGen || ch.listBuilds != wantBuilds {
					t.Fatalf("t=%v: generation %d with %d list builds, want %d with %d", s.Now(), ch.grid.gen, ch.listBuilds, wantGen, wantBuilds)
				}
			}
			s.RunUntil(7 * time.Second)
			gen := ch.grid.gen + 1 // the first check opens an epoch
			checkAll(gen, n)
			for epoch := uint64(1); epoch <= 5; epoch++ {
				edge := ch.grid.nextRefresh
				s.RunUntil(edge - 1)
				if slack := ch.grid.slack; ch.grid.drift(s.Now()) > slack || ch.grid.drift(edge) < slack*(1-1e-9) {
					t.Fatalf("drift bound %v at the epoch's last nanosecond, %v one later; slack is %v", ch.grid.drift(s.Now()), ch.grid.drift(edge), slack)
				}
				checkAll(gen, epoch*n)
				s.RunUntil(edge)
				gen++
				checkAll(gen, (epoch+1)*n)
				if ch.grid.drift(s.Now()) != 0 {
					t.Fatalf("drift bound %v at the epoch's first nanosecond, want 0", ch.grid.drift(s.Now()))
				}
			}
		})
	}
}

// TestTransmitSteadyStateAllocs verifies that once every station has
// transmitted (lists, transmission pool and event pool are warm) a
// transmission and its receptions allocate nothing under a fading model
// for as long as the generation lasts, and that across generations a
// rebuild reuses the arena the last generation's lists left behind: movers
// crossing several epoch boundaries cost a few allocations in all, not one
// per list.
func TestTransmitSteadyStateAllocs(t *testing.T) {
	const n = 512
	// run builds a channel of n stations under shadowing and a step that
	// transmits from the next of them in turn, then advances the clock.
	run := func(p Params, mob mobility.Spec) (*Channel, func(gap sim.Time)) {
		s := sim.New(1)
		p.Propagation, p.Seed = PropSpec{Model: "shadowing"}, 1
		ch := NewChannel(s, p)
		register(t, ch, n, geo.Terrain{Width: 600, Height: 600}, mob)
		f := &Frame{To: Broadcast, Kind: Data, Size: 64}
		next := 0
		return ch, func(gap sim.Time) {
			f.From = NodeID(next % n)
			next++
			ch.Transmit(f)
			s.RunUntil(s.Now() + gap)
		}
	}

	ch, step := run(DefaultParams(), mobility.Spec{Model: "static"})
	for i := 0; i < 2*n; i++ {
		step(2 * time.Millisecond)
	}
	if avg := testing.AllocsPerRun(n, func() { step(2 * time.Millisecond) }); avg != 0 || ch.listBuilds != n {
		t.Fatalf("steady-state Transmit allocates %v objects per frame with %d lists built for %d static stations, want 0 and one each", avg, ch.listBuilds, n)
	}

	// Movers, each transmitting once per round of n frames, a round lasting
	// a little over an epoch: every frame rebuilds its sender's list. Once
	// warm, only a high-water mark moving as density shifts allocates (the
	// arena, the hit scratch, a transmission's receptions, a station's
	// active list).
	const rounds, maxAllocs = 4, 8
	ch, step = run(mobileParams(PropSpec{}, 1), waypoint)
	round := func() {
		for i := 0; i < n; i++ {
			step(ch.grid.refresh/n + 1)
		}
	}
	for i := 0; i < 3; i++ {
		round()
	}
	gen, builds := ch.grid.gen, ch.listBuilds
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < rounds; i++ {
			round()
		}
	})
	// AllocsPerRun runs the function twice: once to warm up, once measured.
	if epochs, built := ch.grid.gen-gen, ch.listBuilds-builds; epochs < 2*(rounds-1) || built != 2*rounds*n || allocs > maxAllocs {
		t.Fatalf("%v allocations over %d frames; twice that crossed %d epoch boundaries and rebuilt %d lists; want at most %d allocations, at least %d boundaries and %d rebuilds",
			allocs, rounds*n, epochs, built, maxAllocs, 2*(rounds-1), 2*rounds*n)
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
