package rtest

import (
	"reflect"
	"testing"
	"time"

	"slr/internal/netstack"
	"slr/internal/sim"
)

// BuildFunc builds one fresh protocol instance, the per-node factory the
// routing registry exposes.
type BuildFunc func() netstack.Protocol

// Conformance runs the contract every registered routing protocol must
// satisfy, independent of what the protocol actually computes:
//
//   - the factory returns a fresh instance per call (protocol state is
//     per node, never shared),
//   - an attached but unstarted protocol transmits nothing,
//   - Start is idempotent: a doubled Start changes no observable result,
//   - identical seeds replay to identical metrics,
//   - every routing-layer drop uses netstack's DropReason vocabulary.
//
// The registry's conformance test (internal/routing) runs it over every
// registered protocol, so a new registration cannot land without meeting
// the contract.
func Conformance(t *testing.T, build BuildFunc) {
	t.Run("FreshInstancePerBuild", func(t *testing.T) {
		if a, b := build(), build(); a == b {
			t.Fatal("factory returned the same instance twice; protocol state must be per node")
		}
	})
	t.Run("QuietBeforeStart", func(t *testing.T) {
		w := NewStopped(1, 120, func(netstack.NodeID) netstack.Protocol { return build() },
			Chain(4, 100), nil)
		w.Sim.RunUntil(5 * time.Second)
		if w.MX.ControlTx != 0 || w.Ch.Frames() != 0 {
			t.Fatalf("control traffic before Start: %d control packets, %d frames",
				w.MX.ControlTx, w.Ch.Frames())
		}
	})
	t.Run("StartIdempotent", func(t *testing.T) {
		once := conformanceRun(build, 1, false)
		twice := conformanceRun(build, 1, true)
		if !reflect.DeepEqual(once, twice) {
			t.Fatalf("doubled Start changed the run:\nonce:  %+v\ntwice: %+v", once, twice)
		}
	})
	t.Run("DeterministicReplay", func(t *testing.T) {
		a := conformanceRun(build, 7, false)
		b := conformanceRun(build, 7, false)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("identical seeds diverged:\nfirst:  %+v\nsecond: %+v", a, b)
		}
	})
	t.Run("DropReasonVocabulary", func(t *testing.T) {
		// A partitioned pair forces drops: no-route for proactive
		// protocols, discovery-timeout (and queue overflow) for
		// on-demand ones.
		w := New(3, 120, func(netstack.NodeID) netstack.Protocol { return build() },
			Chain(2, 5000), nil)
		for i := 0; i < 15; i++ {
			w.Sim.At(sim.Time(i)*200*time.Millisecond, func() { w.Send(0, 1) })
		}
		w.Sim.RunUntil(time.Minute)
		var drops uint64
		for reason, n := range w.MX.DataDrops {
			drops += n
			if !netstack.KnownDropReason(reason) {
				t.Errorf("drop reason %q outside netstack's DropReason vocabulary", reason)
			}
		}
		if drops == 0 {
			t.Fatal("partitioned world recorded no drops; vocabulary check is vacuous")
		}
	})
}

// runStats is the observable outcome conformanceRun compares.
type runStats struct {
	DataSent, DataRecv uint64
	ControlTx          uint64
	ControlBytes       uint64
	HopsSum            uint64
	Frames, Collisions uint64
	Drops              map[string]uint64
}

// conformanceRun drives one fixed workload over a 5-node chain and
// snapshots everything observable.
func conformanceRun(build BuildFunc, seed int64, doubleStart bool) runStats {
	w := New(seed, 120, func(netstack.NodeID) netstack.Protocol { return build() },
		Chain(5, 100), nil)
	if doubleStart {
		w.StartAll()
	}
	for i := 0; i < 5; i++ {
		at := sim.Time(i+1) * time.Second
		src, dst := i%5, (i+4)%5
		w.Sim.At(at, func() { w.Send(src, dst) })
	}
	w.Sim.RunUntil(30 * time.Second)
	return runStats{
		DataSent:     w.MX.DataSent,
		DataRecv:     w.MX.DataRecv,
		ControlTx:    w.MX.ControlTx,
		ControlBytes: w.MX.ControlBytes,
		HopsSum:      w.MX.HopsSum,
		Frames:       w.Ch.Frames(),
		Collisions:   w.Ch.Collisions(),
		Drops:        w.MX.DataDrops,
	}
}
