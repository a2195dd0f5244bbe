package experiments

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"slr/internal/runner"
	"slr/internal/scenario"
	"slr/internal/sim"
)

// protoRank orders protocols for analysis output: the paper's order for
// the protocols it evaluates, then any registry extras (rank beyond the
// paper list, name-sorted by the callers' tie-break).
func protoRank(p scenario.ProtocolName) int {
	for i, ap := range scenario.AllProtocols {
		if p == ap {
			return i
		}
	}
	return len(scenario.AllProtocols)
}

// protoLess is the shared protocol ordering: paper rank, then name.
func protoLess(a, b scenario.ProtocolName) bool {
	if ra, rb := protoRank(a), protoRank(b); ra != rb {
		return ra < rb
	}
	return a < b
}

// sortTrials restores the in-process sweep's per-cell ordering — trial
// number (the seed order), ties broken by seed — on a completion-ordered
// record stream. MergeRecords orders every group with it, so the
// byte-identity contract holds for every report shape.
func sortTrials(recs []runner.Record) {
	sort.SliceStable(recs, func(a, b int) bool {
		if recs[a].Trial != recs[b].Trial {
			return recs[a].Trial < recs[b].Trial
		}
		return recs[a].Seed < recs[b].Seed
	})
}

// mergeGroup is one (protocol, pause) cell of a Merged record set.
type mergeGroup struct {
	proto scenario.ProtocolName
	pause float64 // seconds, exactly as serialized
	recs  []runner.Record
}

// trialSet converts the group's trial-ordered records into a TrialSet.
func (g mergeGroup) trialSet() scenario.TrialSet {
	// The records' pause_seconds passed sim.Seconds in SalvageRecords, or
	// came from a sim.Time.
	pause, _ := sim.Seconds(g.pause)
	ts := scenario.TrialSet{Protocol: g.proto, Pause: pause}
	for _, rec := range g.recs {
		ts.Results = append(ts.Results, rec.Result())
	}
	return ts
}

// Merged is a record stream folded into per-(protocol, pause) groups: the
// one record-merge entry point behind every analysis of a sweep.
// cmd/experiments' printed tables (fresh records plus any salvaged by a
// resume) and cmd/slranalyze's shard merge both build a Merged first and
// Render from it, so grouping, ordering, and dedup semantics cannot drift
// between them.
//
// Construction dedups on the canonical identity key (first occurrence
// wins; determinism makes the copies identical) and orders groups by
// protocol (paper order, then name) and ascending pause, trials in
// trial/seed order within each group — the in-process sweep's ordering,
// whatever order the records arrived in.
type Merged struct {
	// Duplicates counts the records dropped by identity-key dedup —
	// nonzero when shard files overlap or a file was fed twice.
	Duplicates int
	groups     []mergeGroup
}

// MergeRecords folds records — possibly the concatenation of several
// files: shard outputs, a resumed file plus its pre-crash predecessor —
// into their merged, deterministically ordered groups.
func MergeRecords(recs []runner.Record) *Merged {
	recs, dups := runner.DedupRecords(recs)
	type key struct {
		proto scenario.ProtocolName
		pause float64
	}
	byKey := make(map[key][]runner.Record)
	for _, rec := range recs {
		k := key{scenario.ProtocolName(rec.Protocol), rec.PauseSeconds}
		byKey[k] = append(byKey[k], rec)
	}
	keys := make([]key, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].proto != keys[j].proto {
			return protoLess(keys[i].proto, keys[j].proto)
		}
		return keys[i].pause < keys[j].pause
	})
	m := &Merged{Duplicates: dups}
	for _, k := range keys {
		sortTrials(byKey[k])
		m.groups = append(m.groups, mergeGroup{proto: k.proto, pause: k.pause, recs: byKey[k]})
	}
	return m
}

// Grid maps the groups onto the sweep grid of scale s, so Table I, the
// figure tables, the latency percentiles, and the shape report render
// from records alone — live, resumed, or offline without re-simulating.
// The scale must be the one the sweep ran at: its duration maps each
// group's pause seconds back to the grid's pause fraction, and its
// node/flow counts label the tables.
//
// The second return value holds records whose pause time matches no pause
// fraction at this scale (wrong -scale, or a single-spec run): they are
// left out of the grid, never silently folded into the wrong cell.
// Grid.MissingCells afterwards names any cells the merge left short.
func (m *Merged) Grid(s Scale) (*Grid, []runner.Record) {
	// Pause seconds survive the float64→JSON→float64 round trip exactly
	// (the encoder emits the shortest representation that parses back to
	// the same value), so fractions match by equality, not tolerance.
	fracOf := make(map[float64]float64, len(PauseFractions))
	for _, pf := range PauseFractions {
		fracOf[s.pause(pf).Seconds()] = pf
	}

	g := &Grid{Scale: s, cells: make(map[point]scenario.TrialSet, len(m.groups))}
	var leftover []runner.Record
	seen := make(map[scenario.ProtocolName]bool)
	for _, grp := range m.groups {
		pf, ok := fracOf[grp.pause]
		if !ok {
			leftover = append(leftover, grp.recs...)
			continue
		}
		ts := grp.trialSet()
		ts.Pause = s.pause(pf)
		g.cells[point{grp.proto, pf}] = ts
		seen[grp.proto] = true
	}
	for p := range seen {
		g.Protos = append(g.Protos, p)
	}
	sort.Slice(g.Protos, func(i, j int) bool { return protoLess(g.Protos[i], g.Protos[j]) })
	return g, leftover
}

// TrialsReport renders every group's trial summary, one TrialReport per
// group separated by blank lines. name labels every group (a spec sweep's
// scenario name); empty labels each group by its protocol and pause — the
// "trials" report of cmd/slranalyze.
func (m *Merged) TrialsReport(name string) string {
	var b strings.Builder
	for i, g := range m.groups {
		if i > 0 {
			b.WriteString("\n")
		}
		ts := g.trialSet()
		label := name
		if label == "" {
			label = fmt.Sprintf("%s pause=%.0fs", ts.Protocol, ts.Pause.Seconds())
		}
		b.WriteString(TrialReport(label, ts))
	}
	return b.String()
}

// ReportKinds lists the report names Render accepts — the vocabulary of
// cmd/experiments -exp and cmd/slranalyze -report.
var ReportKinds = []string{"all", "table1", "fig3", "fig4", "fig5", "fig6", "fig7", "percentiles", "shape", "trials"}

// checkKind refuses a report name outside ReportKinds.
func checkKind(kind string) error {
	if !slices.Contains(ReportKinds, kind) {
		return fmt.Errorf("unknown report %q (want %s)", kind, strings.Join(ReportKinds, ", "))
	}
	return nil
}

// figure returns the metric behind a figN report name, nil for any other.
func figure(kind string) *Metric {
	for i := range AllMetrics {
		if AllMetrics[i].Key == kind {
			return &AllMetrics[i]
		}
	}
	return nil
}

// ReportProtos returns the protocols a sweep must cover to render report
// kind: a figure restricted to a protocol subset (Fig. 7) needs only that
// subset, everything else the paper's five. An unknown kind is an error,
// so a sweep can refuse a bad report name before it runs.
func ReportProtos(kind string) ([]scenario.ProtocolName, error) {
	if err := checkKind(kind); err != nil {
		return nil, err
	}
	if m := figure(kind); m != nil && m.Protos != nil {
		return m.Protos, nil
	}
	return scenario.AllProtocols, nil
}

// Rendered is one report plus what the merge found amiss with its input;
// callers word the warnings for their own audience.
type Rendered struct {
	Text string
	// Leftover holds the records whose pause matches no grid point at the
	// scale (see Merged.Grid); they are left out of Text.
	Leftover []runner.Record
	// Missing is Grid.MissingCells of the rendered grid.
	Missing []string
}

// Render renders report kind (one of ReportKinds) from the merged records:
// the one place a report name becomes a table. "trials" groups by
// (protocol, pause) as the records are; every other kind maps the groups
// onto the paper grid and needs the scale s the sweep ran at. protos, when
// non-nil, fixes the grid's protocol rows to the sweep's plan instead of
// the protocols present, so a near-empty shard still prints every row.
func (m *Merged) Render(kind string, s *Scale, protos []scenario.ProtocolName) (Rendered, error) {
	if err := checkKind(kind); err != nil {
		return Rendered{}, err
	}
	if kind == "trials" {
		return Rendered{Text: m.TrialsReport("")}, nil
	}
	if s == nil {
		return Rendered{}, fmt.Errorf("report %q needs the sweep's grid scale; these records come from a scale-less spec sweep (use trials)", kind)
	}
	g, leftover := m.Grid(*s)
	if protos != nil {
		g.Protos = protos
	}
	r := Rendered{Leftover: leftover, Missing: g.MissingCells()}
	switch kind {
	case "all":
		r.Text = g.Report()
	case "table1":
		r.Text = g.Table1()
	case "percentiles":
		r.Text = g.LatencyPercentileTable()
	case "shape":
		r.Text = g.ShapeReport()
	default:
		r.Text = g.FigureTable(*figure(kind))
	}
	return r, nil
}
