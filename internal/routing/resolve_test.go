package routing_test

import (
	"reflect"
	"testing"

	"slr/internal/netstack"
	"slr/internal/routing"
	"slr/internal/routing/rtest"
)

// sharedConfig returns the address of the config p runs under, read
// through reflection from its cfg field: the four on-demand protocols keep
// no exported handle on it.
func sharedConfig(t *testing.T, p netstack.Protocol) reflect.Value {
	t.Helper()
	cfg := reflect.ValueOf(p).Elem().FieldByName("cfg")
	if cfg.Kind() != reflect.Pointer || cfg.IsNil() {
		t.Fatalf("%T holds cfg as %v, want a non-nil pointer", p, cfg.Kind())
	}
	return cfg
}

// TestResolvedNodesShareOneConfig resolves each on-demand protocol once,
// off its defaults, and builds several nodes: every node must point at
// the one config, and that config must carry the params.
func TestResolvedNodesShareOneConfig(t *testing.T) {
	params := map[string]float64{"queue_cap": 7, "rreq_retries": 4, "node_traversal_seconds": 0.03}
	for _, name := range []string{"SRP", "AODV", "LDR", "DSR"} {
		build, err := routing.Resolve(routing.Spec{Name: name, Params: params})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		first := sharedConfig(t, build())
		for range 3 {
			if cfg := sharedConfig(t, build()); cfg.Pointer() != first.Pointer() {
				t.Fatalf("%s: nodes of one resolve hold configs at %#x and %#x, want one", name, first.Pointer(), cfg.Pointer())
			}
		}
		cfg := first.Elem()
		if q, r, nt := cfg.FieldByName("QueueCap").Int(), cfg.FieldByName("RreqRetries").Int(), cfg.FieldByName("NodeTraversal").Int(); q != 7 || r != 4 || nt != 30e6 {
			t.Errorf("%s: shared config has queue_cap %d, rreq_retries %d, node_traversal %d ns, want 7, 4, 30000000", name, q, r, nt)
		}
		other, err := routing.Resolve(routing.Spec{Name: name, Params: params})
		if err != nil {
			t.Fatal(err)
		}
		if sharedConfig(t, other()).Pointer() == first.Pointer() {
			t.Errorf("%s: two resolves share a config, want one each so concurrent trials stay apart", name)
		}
	}
}

// TestResolvedSRPNodeAllocs bounds what one SRP node costs to build and
// attach through a resolved builder: the instance and the bound RREQ
// sender its discovery table calls. The config and the table's maps are
// not the node's to allocate.
func TestResolvedSRPNodeAllocs(t *testing.T) {
	build, err := routing.Resolve(routing.Spec{Name: "SRP"})
	if err != nil {
		t.Fatal(err)
	}
	w := rtest.NewStopped(1, 100, func(netstack.NodeID) netstack.Protocol { return build() }, rtest.Chain(1, 0), nil)
	node := w.Nodes[0]
	if avg := testing.AllocsPerRun(100, func() { build().Attach(node) }); avg > 2 {
		t.Errorf("building and attaching an SRP node allocates %.0f times, want <= 2", avg)
	}
}
