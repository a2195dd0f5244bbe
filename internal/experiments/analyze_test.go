package experiments

import (
	"math"
	"strings"
	"testing"

	"slr/internal/runner"
	"slr/internal/scenario"
)

// cellResult builds one synthetic trial result.
func cellResult(p scenario.ProtocolName, seed int64, deliv, load, seq float64) scenario.Result {
	return scenario.Result{
		Protocol: p, Seed: seed,
		DeliveryRatio: deliv, NetworkLoad: load, AvgSeqno: seq,
		Latency: 0.02, MeanHops: 2, DataSent: 100, DataRecv: uint64(100 * deliv),
	}
}

// fullGrid builds a complete synthetic grid in which SRP wins every
// paper claim.
func fullGrid(s Scale) *Grid {
	g := &Grid{Scale: s, Protos: scenario.AllProtocols, cells: make(map[point]scenario.TrialSet)}
	loads := map[scenario.ProtocolName]float64{
		scenario.SRP: 0.5, scenario.LDR: 1.0, scenario.AODV: 1.5, scenario.DSR: 0.9, scenario.OLSR: 4.0,
	}
	delivs := map[scenario.ProtocolName]float64{
		scenario.SRP: 0.99, scenario.LDR: 0.95, scenario.AODV: 0.93, scenario.DSR: 0.80, scenario.OLSR: 0.90,
	}
	seqs := map[scenario.ProtocolName]float64{
		scenario.SRP: 0, scenario.LDR: 5, scenario.AODV: 9,
	}
	for _, p := range g.Protos {
		for _, pf := range PauseFractions {
			ts := scenario.TrialSet{Protocol: p, Pause: s.pause(pf)}
			for trial := 0; trial < 2; trial++ {
				ts.Results = append(ts.Results,
					cellResult(p, int64(trial+1), delivs[p], loads[p], seqs[p]))
			}
			g.cells[point{p, pf}] = ts
		}
	}
	return g
}

// TestShapeReportPartialGrid pins the satellite fix: a single missing
// grid cell used to zero the whole protocol's average and flip PASS/FAIL
// verdicts on partial grids.
func TestShapeReportPartialGrid(t *testing.T) {
	g := fullGrid(Small)
	full := g.ShapeReport()
	if strings.Contains(full, "FAIL") || strings.Contains(full, "n/a") {
		t.Fatalf("synthetic full grid should pass every claim:\n%s", full)
	}

	// Drop one AODV cell. The old early-return made avg(AODV)=0 across
	// the board: network load 0.00 "beat" SRP's 0.50 (claim 2 flipped to
	// FAIL) and AODV's seqno 0.0 broke the seqno ordering claim.
	delete(g.cells, point{scenario.AODV, PauseFractions[3]})
	partial := g.ShapeReport()
	if strings.Contains(partial, "FAIL") || strings.Contains(partial, "n/a") {
		t.Fatalf("one missing cell must not flip verdicts:\n%s", partial)
	}
	if !strings.Contains(partial, "AODV (1.50)") {
		t.Fatalf("AODV average should skip the missing cell, not zero out:\n%s", partial)
	}

	// A protocol with no data at all renders its claims n/a, not FAIL.
	for _, pf := range PauseFractions {
		delete(g.cells, point{scenario.OLSR, pf})
	}
	absent := g.ShapeReport()
	if !strings.Contains(absent, "[n/a] SRP network load") {
		t.Fatalf("claims over an absent protocol must be n/a:\n%s", absent)
	}
	if strings.Contains(absent, "FAIL") {
		t.Fatalf("absent protocol must not fail claims:\n%s", absent)
	}
}

// TestShapeReportSRPBelowDSR verifies SRP competes in the "DSR lowest"
// claim: a divergent reproduction that drags SRP's delivery below DSR's
// must flip that claim to FAIL, not keep a vacuous PASS.
func TestShapeReportSRPBelowDSR(t *testing.T) {
	g := fullGrid(Small)
	for _, pf := range PauseFractions {
		pt := point{scenario.SRP, pf}
		ts := g.cells[pt]
		for i := range ts.Results {
			ts.Results[i].DeliveryRatio = 0.10 // below DSR's 0.80
		}
		g.cells[pt] = ts
	}
	rep := g.ShapeReport()
	if !strings.Contains(rep, "[FAIL] DSR delivery") {
		t.Fatalf("SRP below DSR must fail the lowest-delivery claim:\n%s", rep)
	}
}

// TestShapeReportZeroDeliveryTrials verifies NaN network loads are
// excluded from shape averages rather than poisoning them.
func TestShapeReportZeroDeliveryTrials(t *testing.T) {
	g := fullGrid(Small)
	pt := point{scenario.SRP, PauseFractions[0]}
	ts := g.cells[pt]
	ts.Results = append(ts.Results, cellResult(scenario.SRP, 3, 0, math.NaN(), 0))
	g.cells[pt] = ts
	rep := g.ShapeReport()
	if !strings.Contains(rep, "[PASS] SRP network load (0.50)") {
		t.Fatalf("NaN trial skewed the SRP load average:\n%s", rep)
	}
}

// TestTablesRenderAllNaNCellAsNA verifies a cell whose every trial had
// an undefined network load reads "n/a" in Table I and Fig. 5, not a
// measured-looking 0.000±0.000 that would rank the protocol best.
func TestTablesRenderAllNaNCellAsNA(t *testing.T) {
	g := fullGrid(Small)
	for _, pf := range PauseFractions {
		pt := point{scenario.DSR, pf}
		ts := g.cells[pt]
		for i := range ts.Results {
			ts.Results[i].NetworkLoad = math.NaN()
		}
		g.cells[pt] = ts
	}
	// And one mixed cell: LDR keeps some defined loads at the first pause,
	// so its aggregate renders starred, not silently shrunken.
	mixed := point{scenario.LDR, PauseFractions[0]}
	ts := g.cells[mixed]
	ts.Results[0].NetworkLoad = math.NaN()
	g.cells[mixed] = ts
	for name, tab := range map[string]string{
		"Table1": g.Table1(), "Fig5": g.FigureTable(MetricNetLoad),
	} {
		if !strings.Contains(tab, "n/a") {
			t.Errorf("%s should flag the all-NaN DSR load as n/a:\n%s", name, tab)
		}
		if strings.Contains(tab, "0.000±0.000") {
			t.Errorf("%s renders an undefined load as measured zero:\n%s", name, tab)
		}
		if !strings.Contains(tab, "*") || !strings.Contains(tab, "excludes trials") {
			t.Errorf("%s should star partially-excluded cells and footnote them:\n%s", name, tab)
		}
	}
	if tab := fullGrid(Small).Table1(); strings.Contains(tab, "*") {
		t.Errorf("clean grid must not be starred:\n%s", tab)
	}
}

// TestGridFromRecordsReconstruction verifies grouping, trial ordering,
// and leftover handling on a synthetic shuffled record stream.
func TestGridFromRecordsReconstruction(t *testing.T) {
	s := Small
	pauseSec := func(i int) float64 {
		return s.pause(PauseFractions[i]).Seconds()
	}
	load := 1.5
	mk := func(proto string, pauseIdx, trial int, seed int64, deliv float64) runner.Record {
		return runner.Record{
			Protocol: proto, PauseSeconds: pauseSec(pauseIdx),
			Trial: trial, Seed: seed, DeliveryRatio: deliv, NetworkLoad: &load,
			Schema: runner.RecordSchema,
		}
	}
	recs := []runner.Record{
		mk("AODV", 0, 1, 2, 0.90), // completion order scrambles trials and protocols
		mk("SRP", 0, 1, 2, 0.98),
		mk("SRP", 0, 0, 1, 0.99),
		mk("AODV", 0, 0, 1, 0.91),
		mk("SRP", 2, 0, 1, 0.97),
		{Protocol: "SRP", PauseSeconds: 123.456, Trial: 0, Seed: 9, Schema: runner.RecordSchema},
	}
	g, leftover := MergeRecords(recs).Grid(s)
	if len(leftover) != 1 || leftover[0].PauseSeconds != 123.456 {
		t.Fatalf("leftover = %+v, want the off-grid pause", leftover)
	}
	if len(g.Protos) != 2 || g.Protos[0] != scenario.SRP || g.Protos[1] != scenario.AODV {
		t.Fatalf("protocol order = %v, want paper order SRP,AODV", g.Protos)
	}
	cell := g.Cell(scenario.SRP, PauseFractions[0])
	if len(cell.Results) != 2 || cell.Results[0].Seed != 1 || cell.Results[1].Seed != 2 {
		t.Fatalf("cell trials not in trial order: %+v", cell.Results)
	}
	if got := g.Cell(scenario.SRP, PauseFractions[2]); len(got.Results) != 1 {
		t.Fatalf("sparse cell lost: %+v", got)
	}
}

// TestGridFromRecordsDedupsShardOverlap verifies a double-fed shard (the
// same file concatenated twice, or an overlapping resume) collapses to one
// copy of each trial on the identity key instead of doubling every CI's
// sample.
func TestGridFromRecordsDedupsShardOverlap(t *testing.T) {
	s := Small
	pauseSec := s.pause(PauseFractions[0]).Seconds()
	load := 1.5
	mk := func(trial int, seed int64) runner.Record {
		return runner.Record{
			Protocol: "SRP", PauseSeconds: pauseSec, Trial: trial, Seed: seed,
			DeliveryRatio: 0.9, NetworkLoad: &load, Schema: runner.RecordSchema,
		}
	}
	recs := []runner.Record{mk(0, 1), mk(1, 2), mk(0, 1), mk(1, 2), mk(0, 1)}
	g, leftover := MergeRecords(recs).Grid(s)
	if len(leftover) != 0 {
		t.Fatalf("leftover = %+v", leftover)
	}
	if cell := g.Cell(scenario.SRP, PauseFractions[0]); len(cell.Results) != 2 {
		t.Fatalf("duplicated records inflated the cell to %d trials, want 2", len(cell.Results))
	}

	if m := MergeRecords(recs); m.Duplicates != 3 || !strings.Contains(m.TrialsReport(""), "SRP, 2 trials") {
		t.Fatalf("merge did not dedup: %d duplicates\n%s", m.Duplicates, m.TrialsReport(""))
	}
}

// TestMissingCells verifies the merge check names exactly the holes a
// lost shard leaves and stays quiet on a complete grid.
func TestMissingCells(t *testing.T) {
	g := fullGrid(Small)
	if missing := g.MissingCells(); len(missing) != 0 {
		t.Fatalf("complete grid reports missing cells: %v", missing)
	}
	pt := point{scenario.AODV, PauseFractions[1]}
	ts := g.cells[pt]
	ts.Results = ts.Results[:1]
	g.cells[pt] = ts
	delete(g.cells, point{scenario.OLSR, PauseFractions[0]})
	missing := g.MissingCells()
	if len(missing) != 2 {
		t.Fatalf("missing = %v, want 2 entries", missing)
	}
	wantAODV := "AODV pause=" + g.Scale.PauseLabel(PauseFractions[1]) + "s: 1/2 trials"
	if missing[0] != wantAODV || missing[1] != "OLSR pause=0s: 0/2 trials" {
		t.Fatalf("missing = %v, want [%q, %q]", missing, wantAODV, "OLSR pause=0s: 0/2 trials")
	}

	// An over-full cell — records merged from sweeps with different seeds
	// carry distinct identity keys, so they pile up instead of
	// deduplicating — is an anomaly too, not a quietly tightened CI.
	g = fullGrid(Small)
	pt = point{scenario.SRP, PauseFractions[0]}
	ts = g.cells[pt]
	ts.Results = append(ts.Results, cellResult(scenario.SRP, 99, 0.9, 1, 0))
	g.cells[pt] = ts
	excess := g.MissingCells()
	if len(excess) != 1 || excess[0] != "SRP pause=0s: 3/2 trials (excess: mixed sweeps?)" {
		t.Fatalf("excess = %v", excess)
	}
}

// TestLatencyPercentileTable verifies the new table merges per-trial
// histograms and renders bucket-bound percentiles.
func TestLatencyPercentileTable(t *testing.T) {
	g := fullGrid(Small)
	for pt, ts := range g.cells {
		for i := range ts.Results {
			// 16383 µs bucket bound for most, one slow outlier bucket.
			for j := 0; j < 99; j++ {
				ts.Results[i].LatencyHist.Observe(10000)
			}
			ts.Results[i].LatencyHist.Observe(400000)
		}
		g.cells[pt] = ts
	}
	tab := g.LatencyPercentileTable()
	if !strings.Contains(tab, "Data latency percentiles") {
		t.Fatalf("missing title:\n%s", tab)
	}
	// p50 and p95 in the 10000-µs bucket (bound 16383 -> 0.016 s), p99
	// merged across both trials stays there too (198 of 200 samples).
	if !strings.Contains(tab, "0.016/0.016/0.016") {
		t.Fatalf("percentiles not merged from histograms:\n%s", tab)
	}
	empty := &Grid{Scale: Small, Protos: []scenario.ProtocolName{scenario.SRP},
		cells: make(map[point]scenario.TrialSet)}
	if tab := empty.LatencyPercentileTable(); !strings.Contains(tab, "-") {
		t.Fatalf("empty cells should render '-':\n%s", tab)
	}
}
