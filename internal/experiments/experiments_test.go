package experiments

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"slr/internal/runner"
	"slr/internal/scenario"
	"slr/internal/spec"
)

// tinyScale keeps unit tests fast: 10 nodes, 1 trial, 8-second runs.
func tinyScale() Scale {
	return paperScaled("tiny", 10, spec.Terrain{WidthM: 600, HeightM: 300}, 3, 8, 1)
}

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"full", "mid", "small"} {
		s, err := ScaleByName(name)
		if err != nil || s.Name != name {
			t.Errorf("ScaleByName(%q) = %+v, %v", name, s, err)
		}
	}
	if _, err := ScaleByName("bogus"); err == nil {
		t.Error("bogus scale accepted")
	}
}

// TestScalesAreSpecs verifies every scale is a runnable spec and that the
// full scale is the paper's built-in spec itself.
func TestScalesAreSpecs(t *testing.T) {
	for _, s := range []Scale{Full, Mid, Small} {
		if err := s.Spec.Validate(); err != nil {
			t.Errorf("%s scale: %v", s.Name, err)
		}
	}
	if !reflect.DeepEqual(Full.Spec, *spec.PaperDefault()) {
		t.Errorf("full scale = %+v, want paper-default %+v", Full.Spec, *spec.PaperDefault())
	}
}

func TestPauseFractionsMatchPaper(t *testing.T) {
	// The paper's pause times 0,50,...,900 s of a 900 s run.
	want := []float64{0, 50, 100, 200, 300, 500, 700, 900}
	if len(PauseFractions) != len(want) {
		t.Fatalf("got %d pause fractions", len(PauseFractions))
	}
	for i, f := range PauseFractions {
		if got := f * 900; got != want[i] {
			t.Errorf("fraction %d = %v, want %v s of 900", i, got, want[i])
		}
	}
	if Full.PauseLabel(PauseFractions[3]) != "200" {
		t.Errorf("PauseLabel = %q, want 200", Full.PauseLabel(PauseFractions[3]))
	}
}

func TestParamsScalesPause(t *testing.T) {
	s := tinyScale()
	p := s.Params(scenario.SRP, 0.5, 7)
	if p.Mobility.Pause != 4*time.Second {
		t.Errorf("pause = %v, want 4s (half of 8s)", p.Mobility.Pause)
	}
	if p.Nodes != 10 || p.Seed != 7 || p.Protocol != scenario.SRP {
		t.Errorf("params = %+v", p)
	}
}

// scatterGrid is the test oracle for the records pipeline: the direct
// results→cells scatter the sweep used before records became the only
// currency between a run and a report.
func scatterGrid(s Scale, protos []scenario.ProtocolName, jobs []runner.Job, results []scenario.Result) *Grid {
	g := &Grid{Scale: s, Protos: protos, cells: make(map[point]scenario.TrialSet)}
	for i, j := range jobs {
		pt := point{j.Params.Protocol, j.PauseFrac}
		ts, ok := g.cells[pt]
		if !ok {
			ts = scenario.TrialSet{Protocol: j.Params.Protocol, Pause: j.Params.Mobility.Pause}
		}
		ts.Results = append(ts.Results, results[i])
		g.cells[pt] = ts
	}
	return g
}

func TestSweepAndReports(t *testing.T) {
	s := tinyScale()
	s.Spec.Trials = 2
	protos := []scenario.ProtocolName{scenario.SRP, scenario.AODV}
	jobs := s.Jobs(protos, 1)
	if len(jobs) != len(protos)*len(PauseFractions)*s.Spec.TrialCount() {
		t.Fatalf("grid plan has %d jobs", len(jobs))
	}
	recs, err := SweepOpts(jobs, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	grid, leftover := MergeRecords(recs).Grid(s)
	if len(leftover) != 0 {
		t.Fatalf("%d live records match no grid cell", len(leftover))
	}

	// The records pipeline renders exactly what scattering the raw results
	// into cells renders (trials are deterministic, so re-running is fair).
	results, _ := runner.Run(jobs, runner.Options{})
	if want, got := scatterGrid(s, protos, jobs, results).Report(), grid.Report(); got != want {
		t.Fatalf("records pipeline diverged from the direct scatter:\n--- records ---\n%s--- scatter ---\n%s", got, want)
	}

	tab := grid.Table1()
	if !strings.Contains(tab, "Table I") || !strings.Contains(tab, "SRP") || !strings.Contains(tab, "AODV") {
		t.Fatalf("Table1 output malformed:\n%s", tab)
	}

	fig := grid.FigureTable(MetricDelivery)
	if !strings.Contains(fig, "Fig. 4") {
		t.Fatalf("FigureTable output malformed:\n%s", fig)
	}
	// One row per pause time plus two header lines.
	if got := strings.Count(fig, "\n"); got != len(PauseFractions)+2 {
		t.Fatalf("figure rows = %d, want %d:\n%s", got, len(PauseFractions)+2, fig)
	}

	// Fig. 7 restricts to its three protocols even if the grid has fewer.
	fig7 := grid.FigureTable(MetricSeqno)
	if strings.Contains(fig7, "OLSR") || strings.Contains(fig7, "DSR") {
		t.Fatalf("Fig. 7 table includes non-seqno protocols:\n%s", fig7)
	}

	cell := grid.Cell(scenario.SRP, 0)
	if len(cell.Results) != 2 || cell.Results[0].Seed != 1 || cell.Results[1].Seed != 2 {
		t.Fatalf("cell trials = %+v, want seeds 1, 2", cell.Results)
	}
}

// TestRenderKinds drives the one report-by-name function: every name in
// ReportKinds renders, a figure's protocol subset is what a sweep for it
// must cover, the plan's protocol set overrides the protocols present,
// and an unknown name or a grid report without a scale is an error.
func TestRenderKinds(t *testing.T) {
	s := Small
	load := 1.5
	rec := runner.Record{Protocol: "SRP", PauseSeconds: 0, Trial: 0, Seed: 1,
		DeliveryRatio: 0.9, NetworkLoad: &load, Schema: runner.RecordSchema}
	m := MergeRecords([]runner.Record{rec})
	for _, kind := range ReportKinds {
		r, err := m.Render(kind, &s, nil)
		if err != nil || r.Text == "" {
			t.Errorf("Render(%q) = %q, %v", kind, r.Text, err)
		}
		if kind != "trials" && len(r.Missing) != len(PauseFractions) {
			t.Errorf("Render(%q): %d missing cells, want every SRP cell short of %d trials", kind, len(r.Missing), s.Spec.TrialCount())
		}
	}
	if _, err := m.Render("fig99", &s, nil); err == nil || !strings.Contains(err.Error(), "table1") {
		t.Errorf("unknown kind: %v, want an error listing the kinds", err)
	}
	if _, err := m.Render("table1", nil, nil); err == nil {
		t.Error("grid report without a scale accepted")
	}
	if r, err := m.Render("trials", nil, nil); err != nil || r.Text != m.TrialsReport("") {
		t.Errorf("trials without a scale: %q, %v", r.Text, err)
	}
	r, err := m.Render("table1", &s, scenario.AllProtocols)
	if err != nil || !strings.Contains(r.Text, "OLSR") {
		t.Errorf("plan protocols not rendered as rows: %v\n%s", err, r.Text)
	}
	if p, _ := ReportProtos("fig7"); len(p) != 3 {
		t.Errorf("fig7 sweeps %v, want the three seqno protocols", p)
	}
	if p, _ := ReportProtos("shape"); len(p) != len(scenario.AllProtocols) {
		t.Errorf("shape sweeps %v, want all protocols", p)
	}
	off := rec
	off.PauseSeconds = 123.456
	if r, _ := MergeRecords([]runner.Record{rec, off}).Render("table1", &s, nil); len(r.Leftover) != 1 {
		t.Errorf("off-grid record not reported as leftover: %+v", r.Leftover)
	}
}
