// Benchmarks regenerating the paper's evaluation artifacts (§V): one bench
// per table and figure, plus ablations of the paper's design choices and
// micro-benchmarks of the label machinery.
//
// Scenario benches run the Small experiment scale (30 nodes, 14 flows,
// 120 s) so `go test -bench=.` finishes in minutes; the shapes match the
// mid/full scales driven by cmd/experiments. Each bench reports the paper's
// metric for that figure via b.ReportMetric, so the bench output doubles as
// a results table.
package slr_test

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"slr/internal/experiments"
	"slr/internal/frac"
	"slr/internal/label"
	"slr/internal/runner"
	"slr/internal/scenario"
	"slr/internal/sim"
	"slr/internal/spec"
)

// benchPause is the mobility point benches run at: constant motion, the
// paper's hardest case.
const benchPause = 0

func benchParams(proto scenario.ProtocolName, seed int64) scenario.Params {
	return experiments.Small.Params(proto, benchPause, seed)
}

// runPoint runs b.N trials of one grid point and reports the mean of the
// given metrics.
func runPoint(b *testing.B, p scenario.Params, report map[string]func(scenario.Result) float64) {
	b.Helper()
	sums := make(map[string]float64, len(report))
	for i := 0; i < b.N; i++ {
		p.Seed = int64(i + 1)
		r := scenario.Run(p)
		for name, get := range report {
			sums[name] += get(r)
		}
	}
	for name, sum := range sums {
		b.ReportMetric(sum/float64(b.N), name)
	}
}

// BenchmarkTable1 regenerates Table I: delivery ratio, network load, and
// latency per protocol (averaged over trials at the bench pause point).
func BenchmarkTable1(b *testing.B) {
	for _, proto := range scenario.AllProtocols {
		b.Run(string(proto), func(b *testing.B) {
			runPoint(b, benchParams(proto, 1), map[string]func(scenario.Result) float64{
				"deliv-ratio": func(r scenario.Result) float64 { return r.DeliveryRatio },
				"net-load":    func(r scenario.Result) float64 { return r.NetworkLoad },
				"latency-s":   func(r scenario.Result) float64 { return r.Latency },
			})
		})
	}
}

// BenchmarkFig3MACDrops regenerates Fig. 3: mean MAC-layer drops per node.
func BenchmarkFig3MACDrops(b *testing.B) {
	for _, proto := range scenario.AllProtocols {
		b.Run(string(proto), func(b *testing.B) {
			runPoint(b, benchParams(proto, 1), map[string]func(scenario.Result) float64{
				"mac-drops": func(r scenario.Result) float64 { return r.MACDrops },
			})
		})
	}
}

// BenchmarkFig4Delivery regenerates Fig. 4: delivery ratio.
func BenchmarkFig4Delivery(b *testing.B) {
	for _, proto := range scenario.AllProtocols {
		b.Run(string(proto), func(b *testing.B) {
			runPoint(b, benchParams(proto, 1), map[string]func(scenario.Result) float64{
				"deliv-ratio": func(r scenario.Result) float64 { return r.DeliveryRatio },
			})
		})
	}
}

// BenchmarkFig5NetLoad regenerates Fig. 5: control packets per delivered
// data packet.
func BenchmarkFig5NetLoad(b *testing.B) {
	for _, proto := range scenario.AllProtocols {
		b.Run(string(proto), func(b *testing.B) {
			runPoint(b, benchParams(proto, 1), map[string]func(scenario.Result) float64{
				"net-load": func(r scenario.Result) float64 { return r.NetworkLoad },
			})
		})
	}
}

// BenchmarkFig6Latency regenerates Fig. 6: mean end-to-end data latency.
func BenchmarkFig6Latency(b *testing.B) {
	for _, proto := range scenario.AllProtocols {
		b.Run(string(proto), func(b *testing.B) {
			runPoint(b, benchParams(proto, 1), map[string]func(scenario.Result) float64{
				"latency-s": func(r scenario.Result) float64 { return r.Latency },
			})
		})
	}
}

// BenchmarkFig7SeqNo regenerates Fig. 7: average node sequence number for
// the three sequence-number protocols (SRP must report exactly 0).
func BenchmarkFig7SeqNo(b *testing.B) {
	for _, proto := range []scenario.ProtocolName{scenario.SRP, scenario.LDR, scenario.AODV} {
		b.Run(string(proto), func(b *testing.B) {
			runPoint(b, benchParams(proto, 1), map[string]func(scenario.Result) float64{
				"avg-seqno": func(r scenario.Result) float64 { return r.AvgSeqno },
			})
		})
	}
}

// srpVariant runs SRP with protocol-parameter overrides (the same
// "protocol_params" map a scenario spec carries), reporting the headline
// metrics, for the ablation benches.
func srpVariant(b *testing.B, params map[string]float64) {
	b.Helper()
	p := benchParams(scenario.SRP, 1)
	p.ProtoParams = params
	runPoint(b, p, map[string]func(scenario.Result) float64{
		"deliv-ratio": func(r scenario.Result) float64 { return r.DeliveryRatio },
		"net-load":    func(r scenario.Result) float64 { return r.NetworkLoad },
		"avg-seqno":   func(r scenario.Result) float64 { return r.AvgSeqno },
		"max-denom":   func(r scenario.Result) float64 { return float64(r.MaxDenom) },
	})
}

// BenchmarkAblationBaseline is SRP as published, for comparison with the
// other Ablation* benches.
func BenchmarkAblationBaseline(b *testing.B) { srpVariant(b, nil) }

// BenchmarkAblationHello enables the protocol-complete periodic Hello
// advertisements the paper's simulations run without.
func BenchmarkAblationHello(b *testing.B) {
	srpVariant(b, map[string]float64{"hello_interval_seconds": 2})
}

// BenchmarkAblationNextElementOnly removes the dense split: labels may only
// take the advertisement's next-element, which breaks the request bound on
// out-of-order paths and forces sequence-number resets — SRP degraded
// toward an integer-ordering protocol.
func BenchmarkAblationNextElementOnly(b *testing.B) {
	srpVariant(b, map[string]float64{"split": 2})
}

// BenchmarkAblationFarey swaps the mediant for the Stern-Brocot simplest
// fraction (§VI future work): same behaviour, far smaller denominators.
func BenchmarkAblationFarey(b *testing.B) {
	srpVariant(b, map[string]float64{"split": 1})
}

// BenchmarkAblationNoLie disables the §V understated-RREQ heuristic.
func BenchmarkAblationNoLie(b *testing.B) {
	srpVariant(b, map[string]float64{"use_lie": 0})
}

// BenchmarkAblationNoCache disables the packet cache: MAC-dropped data is
// lost instead of resent on a repaired route.
func BenchmarkAblationNoCache(b *testing.B) {
	srpVariant(b, map[string]float64{"use_packet_cache": 0})
}

// BenchmarkAblationNoRing disables expanding-ring search: every discovery
// floods the whole network immediately.
func BenchmarkAblationNoRing(b *testing.B) {
	srpVariant(b, map[string]float64{"ttl_0": 35, "ttl_1": 35, "ttl_2": 35})
}

// --- Large-N tier -----------------------------------------------------

// largeNParams builds a grid point at the large-N tier: the paper's node
// density (~76 nodes/km², §V) on a square terrain sized for the node
// count, with a short sim horizon so one trial stays benchable. This is
// the in-test counterpart of examples/scenarios/manhattan-5000.json.
func largeNParams(proto scenario.ProtocolName, nodes int) scenario.Params {
	side := 1000 * math.Sqrt(float64(nodes)/75.8)
	s := experiments.Scale{Name: "large", Spec: *spec.PaperDefault()}
	s.Spec.Nodes = nodes
	s.Spec.Terrain = spec.Terrain{WidthM: side, HeightM: side}
	s.Spec.Traffic.Flows = 50
	s.Spec.DurationSeconds = 10
	return s.Params(proto, benchPause, 1)
}

// BenchmarkLargeN runs the large-N tier: SRP and OLSR at thousands of
// nodes, a short horizon per trial. OLSR here exercises the
// incremental-recompute path at scale — before it, this bench was
// intractable at N=5000. The 20000-node scale is CI's large-n-smoke job
// (manhattan-20000.json through cmd/slrsim), not a bench tier: a cold
// start there is minutes of wall time that measure nothing slrbench's
// flood-5000 does not.
func BenchmarkLargeN(b *testing.B) {
	for _, n := range []int{2000, 5000} {
		for _, proto := range []scenario.ProtocolName{scenario.SRP, scenario.OLSR} {
			b.Run(fmt.Sprintf("%s/N=%d", proto, n), func(b *testing.B) {
				runPoint(b, largeNParams(proto, n), map[string]func(scenario.Result) float64{
					"deliv-ratio": func(r scenario.Result) float64 { return r.DeliveryRatio },
				})
			})
		}
	}
}

// --- Micro-benchmarks of the label machinery --------------------------

// BenchmarkMediant measures the mediant split (Eq. 1).
func BenchmarkMediant(b *testing.B) {
	lo, hi := frac.Zero, frac.One
	for i := 0; i < b.N; i++ {
		m, ok := frac.Mediant(lo, hi)
		if !ok {
			lo, hi = frac.Zero, frac.One
			continue
		}
		hi = m
	}
}

// BenchmarkSternBrocot measures the simplest-fraction interpolation (§VI).
func BenchmarkSternBrocot(b *testing.B) {
	lo := frac.MustNew(415, 943)
	hi := frac.MustNew(416, 943)
	for i := 0; i < b.N; i++ {
		if _, ok := frac.Between(lo, hi); !ok {
			b.Fatal("between failed")
		}
	}
}

// BenchmarkOrderingCompare measures the OC precedence test (Definition 5).
func BenchmarkOrderingCompare(b *testing.B) {
	x := label.Order{SN: 3, FD: frac.MustNew(5, 8)}
	y := label.Order{SN: 3, FD: frac.MustNew(3, 5)}
	sink := false
	for i := 0; i < b.N; i++ {
		sink = x.Precedes(y) != sink
	}
	_ = sink
}

// BenchmarkSimulatorEvents measures raw event-loop throughput.
func BenchmarkSimulatorEvents(b *testing.B) {
	s := sim.New(1)
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < b.N {
			s.After(time.Microsecond, tick)
		}
	}
	b.ResetTimer()
	s.After(0, tick)
	s.Run()
}

// BenchmarkScenarioSecond measures simulation cost per simulated second of
// the full stack (SRP, 30 nodes, 14 flows).
func BenchmarkScenarioSecond(b *testing.B) {
	p := benchParams(scenario.SRP, 1)
	p.Duration = sim.Time(b.N) * time.Second
	b.ResetTimer()
	scenario.Run(p)
}

// TestSweepAPISmoke exercises the experiments API end to end on a tiny
// grid, keeping the harness honest between full sweeps.
func TestSweepAPISmoke(t *testing.T) {
	scale := experiments.Small
	scale.Spec.Trials = 1
	scale.Spec.Nodes = 12
	scale.Spec.Traffic.Flows = 3
	scale.Spec.DurationSeconds = 15
	recs, err := experiments.SweepOpts(scale.Jobs([]scenario.ProtocolName{scenario.SRP}, 1), runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := experiments.MergeRecords(recs).Render("all", &scale, nil)
	if err != nil {
		t.Fatal(err)
	}
	report := rep.Text
	for _, want := range []string{"Table I", "Fig. 4", "Fig. 7", "Shape checks"} {
		if !strings.Contains(report, want) {
			t.Fatalf("report missing %q:\n%s", want, report)
		}
	}
}
