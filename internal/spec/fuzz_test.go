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

	"slr/internal/radio"
	"slr/internal/sim"
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

// FuzzParse feeds arbitrary bytes to the spec parser, seeded from every
// spec file the repo ships (read in place, so a new example or benchmark
// workload is a new seed). Parse must never panic; whatever it accepts
// must be one JSON object with no unknown top-level field, must have a
// node count whose ids fit in 32 bits, must resolve to Params whose radio
// channel builds without panicking, and must survive a marshal/Parse round
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
		// The channel a trial builds first must not panic on it.
		radio.NewChannel(sim.New(1), p.RadioParams())
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
