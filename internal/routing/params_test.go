package routing_test

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"slr/internal/routing"
	"slr/internal/routing/aodv"
	"slr/internal/routing/dsr"
	"slr/internal/routing/ldr"
	"slr/internal/routing/srp"
)

// vocabulary is every protocol's protocol_params key set, each key with the
// default it stands for in spec units (seconds, booleans as 0/1).
var vocabulary = map[string]map[string]float64{
	"AODV": {
		"active_route_timeout_seconds": 10,
		"discovery_holddown_seconds":   3,
		"max_salvage":                  3,
		"node_traversal_seconds":       0.04,
		"queue_cap":                    10,
		"rreq_rate_limit":              10,
		"rreq_retries":                 2,
		"ttl_0":                        5,
		"ttl_1":                        10,
		"ttl_2":                        35,
	},
	"DSR": {
		"discovery_holddown_seconds": 3,
		"first_ttl":                  1,
		"max_salvage":                3,
		"net_ttl":                    35,
		"node_traversal_seconds":     0.04,
		"queue_cap":                  10,
		"rreq_rate_limit":            10,
		"rreq_retries":               2,
	},
	"LDR": {
		"active_route_timeout_seconds": 10,
		"discovery_holddown_seconds":   3,
		"max_salvage":                  3,
		"node_traversal_seconds":       0.04,
		"queue_cap":                    10,
		"rreq_rate_limit":              10,
		"rreq_retries":                 2,
		"ttl_0":                        5,
		"ttl_1":                        10,
		"ttl_2":                        35,
	},
	// OLSR runs at the draft's default timing and takes no parameters.
	"OLSR": {},
	"SRP": {
		"active_route_timeout_seconds": 10,
		"delete_period_seconds":        60,
		"discovery_holddown_seconds":   3,
		"hello_interval_seconds":       0,
		"max_denom":                    1e9,
		"max_salvage":                  3,
		"multipath":                    0,
		"node_traversal_seconds":       0.04,
		"queue_cap":                    10,
		"rreq_rate_limit":              10,
		"rreq_retries":                 2,
		"split":                        0,
		"ttl_0":                        5,
		"ttl_1":                        10,
		"ttl_2":                        35,
		"use_lie":                      1,
		"use_packet_cache":             1,
	},
}

// configs reaches each protocol's ConfigFromParams and DefaultConfig
// behind one signature. OLSR has no config: its entry builds through the
// registry and stands for a nil config.
var configs = map[string]struct {
	fromParams func(map[string]float64) (any, error)
	defaults   func() any
}{
	"AODV": {
		func(p map[string]float64) (any, error) { return aodv.ConfigFromParams(p) },
		func() any { return aodv.DefaultConfig() },
	},
	"DSR": {
		func(p map[string]float64) (any, error) { return dsr.ConfigFromParams(p) },
		func() any { return dsr.DefaultConfig() },
	},
	"LDR": {
		func(p map[string]float64) (any, error) { return ldr.ConfigFromParams(p) },
		func() any { return ldr.DefaultConfig() },
	},
	"OLSR": {
		func(p map[string]float64) (any, error) {
			_, err := routing.Build(routing.Spec{Name: "OLSR", Params: p})
			return nil, err
		},
		func() any { return nil },
	},
	"SRP": {
		func(p map[string]float64) (any, error) { return srp.ConfigFromParams(p) },
		func() any { return srp.DefaultConfig() },
	},
}

// TestParamVocabulary pins every protocol's parameter vocabulary and its
// defaults: the unknown-key error must list exactly the expected keys, and
// each key set to its default, alone and all together, must give
// DefaultConfig. A key that disappears, a key a protocol newly accepts, or
// a default that moves fails here.
func TestParamVocabulary(t *testing.T) {
	for _, name := range routing.Protocols() {
		want, ok := vocabulary[name]
		if !ok {
			t.Fatalf("no vocabulary for %s", name)
		}
		cf := configs[name]
		keys := make([]string, 0, len(want))
		for k := range want {
			keys = append(keys, k)
		}
		slices.Sort(keys)

		_, err := cf.fromParams(map[string]float64{"definitely_not_a_knob": 1})
		if err == nil {
			t.Fatalf("%s accepted an unknown parameter", name)
		}
		_, list, _ := strings.Cut(err.Error(), "(known: [")
		list, _, _ = strings.Cut(list, "])")
		if got := strings.Fields(list); !slices.Equal(got, keys) {
			t.Errorf("%s accepts %v, want %v", name, got, keys)
		}

		def := cf.defaults()
		for _, k := range keys {
			cfg, err := cf.fromParams(map[string]float64{k: want[k]})
			if err != nil {
				t.Errorf("%s %s=%v: %v", name, k, want[k], err)
			} else if !reflect.DeepEqual(cfg, def) {
				t.Errorf("%s %s=%v gives %+v, want DefaultConfig %+v", name, k, want[k], cfg, def)
			}
		}
		if cfg, err := cf.fromParams(want); err != nil || !reflect.DeepEqual(cfg, def) {
			t.Errorf("%s with every key at its default gives %+v (%v), want DefaultConfig %+v", name, cfg, err, def)
		}
	}
}

// TestConfigFromParamsAllocs pins what a protocol's config costs the
// trial that resolves it: the appliers are package-level tables, so
// applying no params allocates at most the TTL schedule.
func TestConfigFromParamsAllocs(t *testing.T) {
	for _, c := range []struct {
		name  string
		build func() error
	}{
		{"AODV", func() error { _, err := aodv.ConfigFromParams(nil); return err }},
		{"DSR", func() error { _, err := dsr.ConfigFromParams(nil); return err }},
		{"LDR", func() error { _, err := ldr.ConfigFromParams(nil); return err }},
		{"SRP", func() error { _, err := srp.ConfigFromParams(nil); return err }},
	} {
		if err := c.build(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if avg := testing.AllocsPerRun(100, func() { _ = c.build() }); avg > 1 {
			t.Errorf("%s ConfigFromParams(nil) allocates %.0f times, want <= 1 (the TTL schedule)", c.name, avg)
		}
	}
}

// TestParamRefusals pins the value checks every protocol's keys share: an
// integer key takes only an integral value, a boolean key only 0 or 1, and
// no key takes NaN or ±Inf — none of them truncates or rounds. A value
// out of its key's range (split 3) or against SRP's timer rule (a delete
// period below the active route timeout) is refused too.
func TestParamRefusals(t *testing.T) {
	for _, c := range []struct {
		proto, key string
		v          float64
	}{
		{"SRP", "rreq_retries", -0.5},
		{"SRP", "use_lie", math.NaN()},
		{"SRP", "use_lie", 0.5},
		{"SRP", "multipath", 1.9},
		{"SRP", "split", 3},
		{"SRP", "split", 1.5},
		{"SRP", "delete_period_seconds", 2}, // below active_route_timeout_seconds' 10
		{"SRP", "queue_cap", 2.5},
		{"SRP", "max_denom", 1e9 + 0.5},
		{"SRP", "ttl_0", math.Inf(1)},
		{"SRP", "hello_interval_seconds", math.NaN()},
		{"SRP", "request_rack", 1}, // removed: an unknown key now
		{"LDR", "rreq_rate_limit", 1e300},
		{"LDR", "queue_cap", -1.5},
		{"AODV", "ttl_1", 2.5},
		{"AODV", "active_route_timeout_seconds", math.Inf(1)},
		{"DSR", "first_ttl", 3.5},
		{"DSR", "net_ttl", math.NaN()},
		{"OLSR", "jitter_seconds", math.Inf(-1)},
		{"OLSR", "tc_interval_seconds", 5},
		// Just outside each range; TestParamAcceptances pins the edges
		// inside.
		{"LDR", "ttl_0", 256},
		{"AODV", "active_route_timeout_seconds", 0},
		{"DSR", "rreq_retries", -1},
		{"SRP", "queue_cap", 0},
		{"LDR", "max_salvage", -1},
		{"DSR", "discovery_holddown_seconds", -0.001},
		{"SRP", "node_traversal_seconds", 0},
		// A cap below 1 would switch RREQ_RATELIMIT off.
		{"AODV", "rreq_rate_limit", 0},
		{"DSR", "rreq_rate_limit", -1},
	} {
		_, err := configs[c.proto].fromParams(map[string]float64{c.key: c.v})
		if err == nil || !strings.Contains(err.Error(), c.key) {
			t.Errorf("%s %s=%v: err %v, want a refusal naming the key", c.proto, c.key, c.v, err)
		}
	}
}

// TestParamAcceptances pins what the range checks still admit: each value
// is its key's boundary, one step from a TestParamRefusals row.
func TestParamAcceptances(t *testing.T) {
	for _, c := range []struct {
		proto  string
		params map[string]float64
	}{
		{"LDR", map[string]float64{"ttl_0": 255}},
		{"SRP", map[string]float64{"queue_cap": 1}},
		{"AODV", map[string]float64{"rreq_rate_limit": 1}},
		{"DSR", map[string]float64{"discovery_holddown_seconds": 0}},
		{"SRP", map[string]float64{"delete_period_seconds": 10}}, // active_route_timeout_seconds' default
		{"SRP", map[string]float64{"delete_period_seconds": 4.5, "active_route_timeout_seconds": 4.5}},
	} {
		if _, err := configs[c.proto].fromParams(c.params); err != nil {
			t.Errorf("%s %v: %v, want it accepted", c.proto, c.params, err)
		}
	}
}

// removedKeys are the protocol_params keys no experiment set, each with
// its old default, which the constant that replaced it now holds, and
// SRP's two split flags, which the split key replaced.
var removedKeys = map[string]map[string]float64{
	"SRP":  {"min_reply_hops": 2, "hello_fanout": 10, "farey": 0, "next_element_only": 0},
	"LDR":  {"min_reply_hops": 2, "use_packet_cache": 1},
	"AODV": {"local_repair": 1},
	"DSR":  {"cache_lifetime_seconds": 300, "routes_per_dest": 3, "reply_from_cache": 1},
	"OLSR": {"hello_interval_seconds": 2, "tc_interval_seconds": 5, "neighbor_hold_seconds": 6, "topology_hold_seconds": 15, "jitter_seconds": 0.5},
}

// TestRemovedKeysRefused verifies every protocol refuses each key that
// became a constant or was replaced as unknown, even at its old default,
// and counts the vocabulary: 15 keys went, 45 remain.
func TestRemovedKeysRefused(t *testing.T) {
	removed, kept := 0, 0
	for name, keys := range removedKeys {
		for k, v := range keys {
			removed++
			err := routing.Validate(routing.Spec{Name: name, Params: map[string]float64{k: v}})
			if err == nil || !strings.Contains(err.Error(), "unknown parameter \""+k+"\"") {
				t.Errorf("%s %s=%v: err %v, want it refused as unknown", name, k, v, err)
			}
		}
	}
	for _, keys := range vocabulary {
		kept += len(keys)
	}
	if removed != 15 || kept != 45 {
		t.Errorf("%d keys removed and %d kept, want 15 and 45", removed, kept)
	}
}
