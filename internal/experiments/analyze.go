package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

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
	ts := scenario.TrialSet{Protocol: g.proto, Pause: sim.Time(g.pause * float64(time.Second))}
	for _, rec := range g.recs {
		ts.Results = append(ts.Results, rec.Result())
	}
	return ts
}

// Merged is a record stream folded into per-(protocol, pause) groups: the
// one record-merge entry point behind every analysis of streamed trials.
// cmd/slranalyze's shard merge, the resumed CLI runs that fold salvaged
// records back into their tables, and the sweep coordinator's live report
// endpoint (internal/sweepd) all build a Merged first, so grouping,
// ordering, and dedup semantics cannot drift between them.
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
// files: shard outputs, a resumed file plus its pre-crash predecessor, a
// coordinator's checkpoint — into their merged, deterministically ordered
// groups.
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

// TrialSets returns the groups as per-(protocol, pause) trial sets for
// analyses that need no grid geometry (single-spec runs, ad-hoc pause
// times).
func (m *Merged) TrialSets() []scenario.TrialSet {
	out := make([]scenario.TrialSet, 0, len(m.groups))
	for _, g := range m.groups {
		out = append(out, g.trialSet())
	}
	return out
}

// Grid maps the groups onto the sweep grid of scale s, so Table I, the
// figure tables, the latency percentiles, and the shape report can be
// regenerated offline — grouping, CIs, and histogram merges included —
// without re-simulating. The scale must be the one the sweep ran at: its
// duration maps each group's pause seconds back to the grid's pause
// fraction, and its node/flow counts label the tables.
//
// Every rendered table is byte-identical to the one the live Sweep
// printed. The second return value holds records whose pause time matches
// no pause fraction at this scale (wrong -scale, or a single-spec run):
// they are left out of the grid, never silently folded into the wrong
// cell. Grid.MissingCells afterwards names any cells the merge left
// short.
func (m *Merged) Grid(s Scale) (*Grid, []runner.Record) {
	// Pause seconds survive the float64→JSON→float64 round trip exactly
	// (the encoder emits the shortest representation that parses back to
	// the same value), so fractions match by equality, not tolerance.
	fracOf := make(map[float64]float64, len(PauseFractions))
	for _, pf := range PauseFractions {
		fracOf[(sim.Time(pf * float64(s.Duration))).Seconds()] = pf
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
		pt := point{grp.proto, pf}
		pause := sim.Time(pf * float64(s.Duration))
		for _, rec := range grp.recs {
			g.addResult(pt, rec.Trial, pt.proto, pause, rec.Result())
		}
		seen[grp.proto] = true
	}
	for p := range seen {
		g.Protos = append(g.Protos, p)
	}
	sort.Slice(g.Protos, func(i, j int) bool { return protoLess(g.Protos[i], g.Protos[j]) })
	return g, leftover
}

// TrialsReport renders every group's trial summary, one TrialReport per
// group separated by blank lines — the "-report trials" text of
// cmd/slranalyze and the trials view of the coordinator's /v1/report
// endpoint, byte-identical between the two by construction.
func (m *Merged) TrialsReport() string {
	var b strings.Builder
	for i, g := range m.groups {
		if i > 0 {
			b.WriteString("\n")
		}
		ts := g.trialSet()
		name := fmt.Sprintf("%s pause=%.0fs", ts.Protocol, ts.Pause.Seconds())
		b.WriteString(TrialReport(name, ts))
	}
	return b.String()
}

// Groups splits records into per-(protocol, pause) trial sets; it is
// MergeRecords(recs).TrialSets(), kept for callers that need no other
// view.
func Groups(recs []runner.Record) []scenario.TrialSet {
	return MergeRecords(recs).TrialSets()
}
