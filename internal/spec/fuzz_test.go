package spec

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"slr/internal/mobility"
	"slr/internal/radio"
	"slr/internal/sim"
	"slr/internal/traffic"
)

// jsonKeys returns the JSON field names of struct type t.
func jsonKeys(t reflect.Type) []string {
	var keys []string
	for i := 0; i < t.NumField(); i++ {
		name, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
		keys = append(keys, name)
	}
	return keys
}

// modelRanges names every key of the registered models that take params
// with a value the paper-default spec admits and, on each side of it, a
// value it refuses, NaN on a side with no bound: edgeSeeds finds the edges
// between them.
var modelRanges = []struct {
	family, model, key string
	below, in, above   float64
}{
	{"traffic", "onoff", "on_mean_seconds", 0, 1, 1e10},
	{"traffic", "onoff", "off_mean_seconds", 0, 1, 1e10},
	{"mobility", "gauss-markov", "step_seconds", 0, 1, 1e10},
	{"mobility", "manhattan", "block_m", 0, 100, 1e4},
	{"radio", "shadowing", "sigma_db", -1, 4, 1e300},
	{"radio", "shadowing", "pathloss_exp", 0, 3, math.NaN()},
}

// edgeSeeds returns, for every key of modelRanges, the paper-default spec
// at each edge of the key's admitted range and one float step past it,
// or at math.MaxFloat64 on a side with no bound. It fails tb unless Parse
// accepts every edge and refuses every step past one.
func edgeSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	var seeds [][]byte
	add := func(s *ScenarioSpec, accept bool) {
		data, err := json.Marshal(s)
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := Parse(data); (err == nil) != accept {
			tb.Fatalf("Parse(%s) = %v, want accepted %v", data, err, accept)
		}
		seeds = append(seeds, data)
	}
	for _, r := range modelRanges {
		at := func(v float64) *ScenarioSpec { return withModel(r.family, r.model, map[string]float64{r.key: v}) }
		accepts := func(v float64) bool {
			data, _ := json.Marshal(at(v))
			_, err := Parse(data)
			return err == nil
		}
		for _, out := range []float64{r.below, r.above} {
			if math.IsNaN(out) {
				add(at(math.MaxFloat64), true)
				continue
			}
			edge := lastAccepted(accepts, r.in, out)
			add(at(edge), true)
			add(at(math.Nextafter(edge, out)), false)
		}
	}
	return seeds
}

// lastAccepted returns the float between in, which accept takes, and out,
// which it refuses, that accept takes and whose neighbour toward out it
// refuses, by bisection over the floats' order.
func lastAccepted(accept func(float64) bool, in, out float64) float64 {
	// order maps floats to integers of the same order, and back.
	order := func(x int64) int64 {
		if x < 0 {
			return math.MinInt64 - x
		}
		return x
	}
	lo, hi := order(int64(math.Float64bits(in))), order(int64(math.Float64bits(out)))
	// The two may be 2^63 or more apart: the distance is unsigned.
	for uint64(max(lo, hi)-min(lo, hi)) > 1 {
		mid := lo>>1 + hi>>1 + lo&hi&1
		if accept(math.Float64frombits(uint64(order(mid)))) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return math.Float64frombits(uint64(order(lo)))
}

// FuzzParse feeds arbitrary bytes to the spec parser, seeded from every
// spec file the repo ships (read in place, so a new example or benchmark
// workload is a new seed) and from every model parameter at the edges of
// its admitted range and one step past each (edgeSeeds). Parse must never
// panic; whatever it accepts must be one JSON object with no unknown
// top-level field, must have a node count whose ids fit in 32 bits, must
// resolve to Params whose radio channel builds without panicking, whose
// mobility models draw positions that are numbers and whose traffic pacer
// draws gaps in [0, sim.MaxSpan], and must survive a marshal/Parse round
// trip unchanged.
func FuzzParse(f *testing.F) {
	for _, pattern := range []string{"../../examples/scenarios/*.json", "../../cmd/slrbench/workloads/*.json"} {
		paths, _ := filepath.Glob(pattern)
		if len(paths) == 0 {
			f.Fatalf("no seed specs match %s", pattern)
		}
		for _, path := range paths {
			data, err := os.ReadFile(path)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	huge := PaperDefault()
	huge.Nodes = math.MaxInt32 + 1
	data, err := json.Marshal(huge)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	// A fractional count and a boolean that is neither 0 nor 1 must be
	// refused, not truncated.
	for _, params := range []map[string]float64{{"rreq_retries": -0.5}, {"use_lie": 0.5}} {
		s := PaperDefault()
		s.ProtocolParams = params
		data, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		if _, err := Parse(data); err == nil {
			f.Fatalf("Parse accepted protocol_params %v", params)
		}
		f.Add(data)
	}
	// A rate whose packet interval rounds to 0 ns must be refused, not
	// hang the trial; inputs that would wrap the clock must be refused,
	// not panic it.
	for _, u := range unrunnable {
		f.Add(tinySpec(f, u.set))
	}
	// Specs whose channel cannot be built (an infinite MaxRange, a speed
	// bound with no grid epoch) and a knob in a model that lacks it must
	// be refused, not run on defaults or panic in the trial.
	fast := PaperDefault()
	fast.Mobility.MaxSpeedMps = 1e12
	for _, s := range []*ScenarioSpec{
		withModel("radio", "shadowing", map[string]float64{"sigma_db": 1e300}),
		withModel("radio", "shadowing", map[string]float64{"pathloss_exp": 1e-300}),
		fast,
		withModel("radio", "shadowing", map[string]float64{"sigma": 12}),
	} {
		data, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		if _, err := Parse(data); err == nil {
			f.Fatalf("Parse accepted %s", data)
		}
		f.Add(data)
	}
	for _, data := range edgeSeeds(f) {
		f.Add(data)
	}
	known := jsonKeys(reflect.TypeOf(ScenarioSpec{}))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		var doc map[string]json.RawMessage
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatalf("Parse accepted input that is not one JSON object: %v", err)
		}
		for key := range doc {
			// encoding/json matches field names case-insensitively.
			if !slices.ContainsFunc(known, func(k string) bool { return strings.EqualFold(k, key) }) {
				t.Fatalf("Parse accepted unknown field %q", key)
			}
		}
		if s.Nodes > math.MaxInt32 {
			t.Fatalf("Parse accepted %d nodes, past the 32-bit node ids SRP stores", s.Nodes)
		}
		p, err := s.Params()
		if err != nil {
			t.Fatalf("accepted spec has no Params: %v", err)
		}
		// The channel a trial builds first must not panic on it, nor the
		// models it builds next on their first draws: two nodes' first
		// positions (at instants up to the shortest step, 1 ms) and a
		// flow's first gaps.
		radio.NewChannel(sim.New(1), p.RadioParams())
		rng := sim.NewRand(1)
		for range 2 {
			m, err := mobility.Build(p.Terrain, rng, p.Mobility)
			if err != nil {
				t.Fatalf("accepted spec's mobility does not build: %v", err)
			}
			for _, at := range []sim.Time{0, time.Microsecond, time.Millisecond} {
				if pos := m.Position(at); math.IsNaN(pos.X) || math.IsNaN(pos.Y) {
					t.Fatalf("%s position at %v is %v", p.Mobility.Model, at, pos)
				}
			}
		}
		pacer, err := traffic.NewPacer(p.Traffic)
		if err != nil {
			t.Fatalf("accepted spec's pacer does not build: %v", err)
		}
		for range 8 {
			if gap := pacer.Next(rng); gap < 0 || gap > sim.MaxSpan {
				t.Fatalf("%s pacer drew a gap of %v, outside [0, %v]", p.Traffic.Model, gap, sim.MaxSpan)
			}
		}
		out, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		again, err := Parse(out)
		if err != nil {
			t.Fatalf("accepted spec does not re-validate after a round trip: %v\n%s", err, out)
		}
		if out2, _ := json.Marshal(again); !bytes.Equal(out, out2) {
			t.Fatalf("round trip changed the spec:\n%s\n%s", out, out2)
		}
	})
}
