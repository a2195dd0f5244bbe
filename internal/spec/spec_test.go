package spec

import (
	"encoding/json"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"slr/internal/geo"
	"slr/internal/mobility"
	"slr/internal/radio"
	"slr/internal/scenario"
	"slr/internal/sim"
	"slr/internal/traffic"
)

// TestPaperDefaultIsThePaperSetup pins the built-in spec to §V's setup:
// 100 nodes on 2200 m x 600 m with a 275 m unit-disk radio, 0-20 m/s
// random waypoint, and 30 CBR flows of 512-byte packets at 4 pps living
// 60 s on average, for 900 s, 10 trials.
func TestPaperDefaultIsThePaperSetup(t *testing.T) {
	got, err := PaperDefault().Params()
	if err != nil {
		t.Fatal(err)
	}
	want := scenario.Params{
		Protocol: scenario.SRP,
		Nodes:    100,
		Terrain:  geo.Terrain{Width: 2200, Height: 600},
		Range:    275,
		Duration: 900 * time.Second,
		Seed:     1,
		Traffic: traffic.Params{Flows: 30, PacketSize: 512, Rate: 4,
			MeanLife: 60 * time.Second, Model: "cbr"},
		Mobility:    mobility.Spec{Model: "waypoint", MinSpeed: 0, MaxSpeed: 20, Pause: 0},
		Propagation: radio.PropSpec{Model: "unit-disk"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("paper-default params:\ngot:  %+v\nwant: %+v", got, want)
	}
	if n := PaperDefault().TrialCount(); n != 10 {
		t.Fatalf("paper-default runs %d trials, want 10", n)
	}
}

// TestValidateParamsRefusesNoMobility verifies a Params that names no
// mobility model is refused: Run builds exactly the model Params.Mobility
// names and has no fallback.
func TestValidateParamsRefusesNoMobility(t *testing.T) {
	p, err := PaperDefault().Params()
	if err != nil {
		t.Fatal(err)
	}
	p.Mobility = mobility.Spec{}
	if err := ValidateParams(p); err == nil || !strings.Contains(err.Error(), "mobility") {
		t.Fatalf("ValidateParams with no mobility model = %v, want a mobility error", err)
	}
}

// TestValidateParamsRefusesSpansPastTheClock verifies ValidateParams
// itself bounds a run's duration and pause by sim.MaxSpan, naming the key
// and the value, since cmd/slrsim overlays both from flags that
// sim.Seconds never sees. Each span at the bound is accepted.
func TestValidateParamsRefusesSpansPastTheClock(t *testing.T) {
	const past = 2000000 * time.Hour
	for _, c := range []struct {
		want string
		set  func(*scenario.Params, sim.Time)
	}{
		{"duration_seconds 7.2e+09", func(p *scenario.Params, v sim.Time) { p.Duration = v }},
		{"pause_seconds 7.2e+09", func(p *scenario.Params, v sim.Time) { p.Mobility.Pause = v }},
	} {
		p, err := PaperDefault().Params()
		if err != nil {
			t.Fatal(err)
		}
		c.set(&p, sim.MaxSpan)
		if err := ValidateParams(p); err != nil {
			t.Errorf("ValidateParams at sim.MaxSpan: %v, want it accepted", err)
		}
		c.set(&p, past)
		if err := ValidateParams(p); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("ValidateParams past sim.MaxSpan = %v, want a refusal quoting %q", err, c.want)
		}
	}
}

// TestParseRoundTrip verifies a marshaled spec parses back identically.
func TestParseRoundTrip(t *testing.T) {
	orig := PaperDefault()
	blob, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, back) {
		t.Fatalf("round trip diverged:\nin:  %+v\nout: %+v", orig, back)
	}
}

// TestParseRejects enumerates the load-time failure modes: unknown
// fields, wrong version, unregistered models, broken model params, and
// structural nonsense.
func TestParseRejects(t *testing.T) {
	mutate := func(f func(*ScenarioSpec)) []byte {
		s := PaperDefault()
		f(s)
		blob, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	cases := []struct {
		name string
		blob []byte
		want string
	}{
		{"unknown field", []byte(`{"version":1,"protcol":"SRP"}`), "protcol"},
		{"bad version", mutate(func(s *ScenarioSpec) { s.Version = 99 }), "version"},
		{"bad protocol", mutate(func(s *ScenarioSpec) { s.Protocol = "OSPF" }), "protocol"},
		{"bad mobility", mutate(func(s *ScenarioSpec) { s.Mobility.Model = "teleport" }), "mobility"},
		{"bad traffic", mutate(func(s *ScenarioSpec) { s.Traffic.Model = "torrent" }), "traffic"},
		{"bad propagation", mutate(func(s *ScenarioSpec) { s.Radio.Propagation = "warp" }), "propagation"},
		{"bad speeds", mutate(func(s *ScenarioSpec) { s.Mobility.MinSpeedMps = 30 }), "speeds"},
		{"one node", mutate(func(s *ScenarioSpec) { s.Nodes = 1 }), "nodes"},
		{"ids past 32 bits", mutate(func(s *ScenarioSpec) { s.Nodes = math.MaxInt32 + 1 }), "2147483647"},
		{"no duration", mutate(func(s *ScenarioSpec) { s.DurationSeconds = 0 }), "duration"},
		{"no flow lifetime", mutate(func(s *ScenarioSpec) { s.Traffic.MeanLifeSeconds = 0 }), "mean_life_seconds"},
		{"bad model param", mutate(func(s *ScenarioSpec) {
			s.Mobility.Model = "manhattan"
			s.Mobility.Params = map[string]float64{"block_m": 1e9}
		}), "block_m"},
	}
	for _, u := range unrunnable {
		cases = append(cases, struct {
			name string
			blob []byte
			want string
		}{u.name, tinySpec(t, u.set), u.want})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.blob)
			if err == nil {
				t.Fatalf("Parse accepted %s", tc.blob)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// withModel returns the paper-default spec with one model section swapped:
// family "mobility", "traffic" or "radio" set to model with params.
func withModel(family, model string, params map[string]float64) *ScenarioSpec {
	s := PaperDefault()
	switch family {
	case "mobility":
		s.Mobility.Model, s.Mobility.Params = model, params
	case "traffic":
		s.Traffic.Model, s.Traffic.Params = model, params
	case "radio":
		s.Radio.Propagation, s.Radio.Params = model, params
	}
	return s
}

// parseSpec marshals s and parses it back, as a spec file would load.
func parseSpec(t *testing.T, s *ScenarioSpec) error {
	t.Helper()
	blob, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Parse(blob)
	return err
}

// TestModelParamsStrict verifies every model's params map is read against
// the model's own vocabulary, like protocol_params: a key the model does
// not have fails Parse, naming the key, for every registered mobility,
// traffic and propagation model — those without parameters included — and
// a knob put in the wrong model's map is not quietly ignored.
func TestModelParamsStrict(t *testing.T) {
	const typo = "definitely_not_a_knob"
	for family, models := range map[string][]string{
		"mobility": mobility.Models(),
		"traffic":  traffic.Models(),
		"radio":    radio.PropagationModels(),
	} {
		for _, model := range models {
			if err := parseSpec(t, withModel(family, model, nil)); err != nil {
				t.Fatalf("%s model %s without params: %v", family, model, err)
			}
			err := parseSpec(t, withModel(family, model, map[string]float64{typo: 1}))
			if err == nil || !strings.Contains(err.Error(), typo) {
				t.Errorf("%s model %s with params {%s: 1}: err %v, want a refusal naming the key", family, model, typo, err)
			}
		}
	}
	for _, c := range []struct{ family, model, key string }{
		{"radio", "shadowing", "sigma"},
		{"mobility", "waypoint", "block_m"},
		{"traffic", "cbr", "on_mean_seconds"},
	} {
		err := parseSpec(t, withModel(c.family, c.model, map[string]float64{c.key: 12}))
		if err == nil || !strings.Contains(err.Error(), c.key) {
			t.Errorf("%s %s with %s: err %v, want a refusal naming the key", c.family, c.model, c.key, err)
		}
	}
}

// TestChannelBreakingSpecsRefused verifies a spec whose radio channel
// cannot be built fails Parse with an error instead of validating and then
// panicking when a trial builds the channel: a shadowing spread or
// pathloss exponent that makes MaxRange infinite, and a speed bound that
// leaves the spatial grid no refresh epoch.
func TestChannelBreakingSpecsRefused(t *testing.T) {
	fast := PaperDefault()
	fast.Mobility.MaxSpeedMps = 1e12
	for name, c := range map[string]struct {
		s    *ScenarioSpec
		want string
	}{
		"sigma_db":      {withModel("radio", "shadowing", map[string]float64{"sigma_db": 1e300}), "MaxRange"},
		"pathloss_exp":  {withModel("radio", "shadowing", map[string]float64{"pathloss_exp": 1e-300}), "MaxRange"},
		"max_speed_mps": {fast, "refresh epoch"},
	} {
		if err := parseSpec(t, c.s); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err %v, want a refusal mentioning %q", name, err, c.want)
		}
	}
}

// TestResolveBuiltin verifies bare names fall back to the built-ins with a
// helpful error for unknown ones.
func TestResolveBuiltin(t *testing.T) {
	s, err := Resolve("paper-default")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "paper-default" || s.Nodes != 100 {
		t.Fatalf("Resolve(paper-default) = %+v", s)
	}
	if _, err := Resolve("no-such-spec"); err == nil || !strings.Contains(err.Error(), "paper-default") {
		t.Fatalf("Resolve(no-such-spec) error %v does not list built-ins", err)
	}
}

// TestExampleSpecsLoad verifies every committed example spec file parses,
// validates, and resolves to runnable params — the repo never ships a
// stale example.
func TestExampleSpecsLoad(t *testing.T) {
	paths, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 3 {
		t.Fatalf("want >= 3 example specs, found %v", paths)
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			s, err := Load(path)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Params(); err != nil {
				t.Fatal(err)
			}
			// The goldens run this file; slrsim's default and make
			// identity run the built-in. They must be one scenario.
			if filepath.Base(path) == "paper-default.json" && !reflect.DeepEqual(s, PaperDefault()) {
				t.Fatalf("%s = %+v, want the built-in %+v", path, s, PaperDefault())
			}
		})
	}
}

// TestTinySpecRuns loads the CI smoke spec and runs it to completion:
// the exact path the spec-smoke CI job exercises.
func TestTinySpecRuns(t *testing.T) {
	s, err := Load("../../examples/scenarios/tiny-smoke.json")
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.Params()
	if err != nil {
		t.Fatal(err)
	}
	r := scenario.Run(p)
	if r.DataSent == 0 {
		t.Fatal("tiny smoke spec generated no traffic")
	}
}

// unrunnable are changes to the tiny-smoke spec that the simulator cannot
// run, each with what its refusal must quote: the key and the value as
// given.
var unrunnable = []struct {
	name, want string
	set        func(*ScenarioSpec)
}{
	// 2e9 packets per second per flow is a packet interval of 0.5 ns,
	// which rounds to 0: a flow's tick would reschedule itself at the
	// same instant forever.
	{"sub-nanosecond packet interval", "rate_pps 2e+09", func(s *ScenarioSpec) { s.Traffic.Model, s.Traffic.RatePps = "cbr", 2e9 }},
	// Each of the next four would wrap sim.Time: the packet's air time,
	// the packet interval (1e21 ns), the duration or the flow lifetime.
	{"oversized packet", "packet_size_bytes 2000000000000000000", func(s *ScenarioSpec) { s.Traffic.PacketSizeBytes = 2e18 }},
	{"packet interval past the clock", "rate_pps 1e-12", func(s *ScenarioSpec) { s.Traffic.Model, s.Traffic.RatePps = "cbr", 1e-12 }},
	{"duration past the clock", "duration_seconds 1e+12", func(s *ScenarioSpec) { s.DurationSeconds = 1e12 }},
	{"flow lifetime past the clock", "mean_life_seconds 1e+12", func(s *ScenarioSpec) { s.Traffic.MeanLifeSeconds = 1e12 }},
	{"negative pause", "pause_seconds -3", func(s *ScenarioSpec) { s.Mobility.Model, s.Mobility.PauseSeconds = "waypoint", -3 }},
	{"pause past the clock", "pause_seconds 1e+12", func(s *ScenarioSpec) { s.Mobility.Model, s.Mobility.PauseSeconds = "waypoint", 1e12 }},
	// Model and protocol periods past sim.MaxSpan: an OFF gap drawn from
	// this mean wrapped negative and panicked the kernel mid-trial; the
	// timer was refused as a wrapped negative span.
	{"onoff off period past the clock", `"off_mean_seconds" is 1e+12`, func(s *ScenarioSpec) {
		s.Traffic.Model, s.Traffic.Params = "onoff", map[string]float64{"off_mean_seconds": 1e12}
	}},
	{"route timeout past the clock", `"active_route_timeout_seconds" is 1e+12`, func(s *ScenarioSpec) {
		s.ProtocolParams = map[string]float64{"active_route_timeout_seconds": 1e12}
	}},
	{"gauss-markov step past the clock", `"step_seconds" is 1e+12`, func(s *ScenarioSpec) {
		s.Mobility.Model, s.Mobility.Params = "gauss-markov", map[string]float64{"step_seconds": 1e12}
	}},
}

// tinySpec is the tiny-smoke spec changed by set, encoded.
func tinySpec(tb testing.TB, set func(*ScenarioSpec)) []byte {
	tb.Helper()
	s, err := Load("../../examples/scenarios/tiny-smoke.json")
	if err != nil {
		tb.Fatal(err)
	}
	set(s)
	blob, err := json.Marshal(s)
	if err != nil {
		tb.Fatal(err)
	}
	return blob
}

// TestProtocolParamsThread verifies the spec's protocol_params section
// reaches scenario.Params untouched and that every registered protocol
// with parameters accepts a spec overriding at least three of its
// constants — the protocol-parameter-sweep workload contract. OLSR takes
// no parameters, so its spec carries an empty map.
func TestProtocolParamsThread(t *testing.T) {
	overrides := map[string]map[string]float64{
		"SRP":  {"rreq_retries": 4, "hello_interval_seconds": 2, "max_denom": 1e6},
		"LDR":  {"rreq_retries": 3, "queue_cap": 20, "ttl_0": 3},
		"AODV": {"active_route_timeout_seconds": 5, "ttl_1": 8, "rreq_rate_limit": 20},
		"DSR":  {"first_ttl": 2, "net_ttl": 30, "queue_cap": 20},
		"OLSR": {},
	}
	for _, proto := range scenario.AllProtocols {
		t.Run(string(proto), func(t *testing.T) {
			params, ok := overrides[string(proto)]
			if !ok || len(params) < 3 && proto != scenario.OLSR {
				t.Fatalf("need >= 3 override keys for %s", proto)
			}
			s := PaperDefault()
			s.Protocol = string(proto)
			s.ProtocolParams = params
			p, err := s.Params()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(p.ProtoParams, params) {
				t.Fatalf("ProtoParams = %v, want %v", p.ProtoParams, params)
			}
		})
	}
}

// TestProtocolParamsRejected verifies a typoed or out-of-range protocol
// parameter fails at spec load, naming the offending key.
func TestProtocolParamsRejected(t *testing.T) {
	s := PaperDefault()
	s.ProtocolParams = map[string]float64{"helo_interval_seconds": 2}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "helo_interval_seconds") {
		t.Fatalf("typoed key error = %v", err)
	}
	s.ProtocolParams = map[string]float64{"queue_cap": 0}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "queue_cap") {
		t.Fatalf("out-of-range error = %v", err)
	}
}

// TestAodvAggressiveSpec pins the committed tuned-protocol example: it
// must select AODV with at least three overridden constants.
func TestAodvAggressiveSpec(t *testing.T) {
	s, err := Load("../../examples/scenarios/aodv-aggressive.json")
	if err != nil {
		t.Fatal(err)
	}
	if s.Protocol != "AODV" || len(s.ProtocolParams) < 3 {
		t.Fatalf("aodv-aggressive spec = protocol %s with %d params, want AODV with >= 3",
			s.Protocol, len(s.ProtocolParams))
	}
	if _, err := s.Params(); err != nil {
		t.Fatal(err)
	}
}
