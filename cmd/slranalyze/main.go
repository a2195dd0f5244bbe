// Command slranalyze regenerates the paper's evaluation artifacts from a
// sweep's per-trial JSONL stream alone — no re-simulation. A full-scale
// sweep (400 runs; one trial per cell took 1 m 40 s on one 2-vCPU host
// and 5 m 42 s on another, so all ten take about 17–57 min) is run once
// with -jsonl; every table, CI, percentile merge, and shape verdict is
// then recomputed offline in milliseconds, with protocol filters and
// report selection, and the output is byte-identical to what the
// in-process sweep printed.
//
// -in repeats, so a sweep split across processes with -shard merges here:
// records from all inputs are concatenated, de-duplicated on the
// (protocol, pause, trial, seed) identity key (duplicates are reported to
// stderr, first occurrence wins — determinism makes the copies
// identical), and analyzed as one sweep, byte-identical to a
// single-process run of the same grid. Grid reports also name any cells
// the merge left short of the scale's trial count — the check that no
// shard went missing. Files with a truncated tail (a killed writer)
// contribute their complete records.
//
// Grid reports (-report all, table1, fig3..fig7, percentiles, shape)
// need -scale to map each record's pause time back to its grid cell and
// to label the tables; records whose pause matches no grid point at that
// scale are counted to stderr and left out. -report trials needs no
// scale: it groups records by (protocol, pause) as they are and prints
// each group's trial summary, which also fits single-spec runs
// (cmd/experiments -spec ... -jsonl).
//
// Example:
//
//	experiments -scale full -workers 0 -jsonl full.jsonl   # 17–57 min, once
//	slranalyze -in full.jsonl -scale full                  # ms, repeatable
//	slranalyze -in full.jsonl -scale full -report table1 -protos SRP,LDR
//	slranalyze -in tiny.jsonl -report trials
//	slranalyze -in shard1.jsonl -in shard2.jsonl -scale full   # shard merge
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"slr/internal/experiments"
	"slr/internal/runner"
	"slr/internal/scenario"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "slranalyze:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("slranalyze", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var inputs inputList
	fs.Var(&inputs, "in", "sweep JSONL `file` (repeatable to merge shards; \"-\" = stdin; default \"-\")")
	var (
		scaleName = fs.String("scale", "mid", "scale the sweep ran at: full, mid, small (grid reports)")
		trials    = fs.Int("trials", 0, "trials per grid point the sweep ran with, if it overrode the scale default (0 = scale default); sets the missing-cell expectation")
		report    = fs.String("report", "all", "report: "+strings.Join(experiments.ReportKinds, ", "))
		protos    = fs.String("protos", "", "comma-separated protocol filter (default: all present)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(inputs) == 0 {
		inputs = inputList{"-"}
	}

	var recs []runner.Record
	stdinUsed := false
	for _, in := range inputs {
		var r io.Reader = stdin
		if in == "-" {
			// A second "-" would read an already-drained stream and
			// silently contribute nothing.
			if stdinUsed {
				return fmt.Errorf(`stdin ("-") given more than once`)
			}
			stdinUsed = true
		} else {
			f, err := os.Open(in)
			if err != nil {
				return err
			}
			defer f.Close()
			r = f
		}
		fileRecs, err := runner.ReadRecords(r)
		if err != nil {
			// A sweep killed mid-write leaves a truncated trailing line;
			// the complete records before it are exactly what this tool
			// exists to salvage without re-simulating. Analyze them and
			// say what broke.
			if len(fileRecs) == 0 {
				return fmt.Errorf("reading %s: %w", in, err)
			}
			fmt.Fprintf(stderr, "slranalyze: %s: %v after %d complete records; analyzing those\n",
				in, err, len(fileRecs))
		}
		recs = append(recs, fileRecs...)
	}
	// Shard outputs and resumed files can repeat a trial; the identity key
	// (protocol, pause, trial, seed) spots the copies, which determinism
	// guarantees are identical. Report the count so a double-fed file is
	// visible, then analyze as if the sweep had run in one process.
	recs, dups := runner.DedupRecords(recs)
	if dups > 0 {
		fmt.Fprintf(stderr, "slranalyze: %d duplicate records dropped (same protocol/pause/trial/seed)\n", dups)
	}
	if *protos != "" {
		recs = filterProtos(recs, *protos)
	}
	if len(recs) == 0 {
		return fmt.Errorf("no records to analyze (after filters)")
	}

	// One merge and one renderer for every report shape: grouping,
	// ordering, and dedup all come from the shared entry point, so this
	// output stays byte-identical to the live sweep's.
	merged := experiments.MergeRecords(recs)
	if *report == "trials" {
		fmt.Fprint(stdout, merged.TrialsReport(""))
		return nil
	}

	scale, err := experiments.ScaleByName(*scaleName)
	if err != nil {
		return err
	}
	if *trials > 0 {
		// Mirror the sweep's own -trials override so the missing-cell
		// check expects what actually ran, not the scale's default.
		scale.Spec.Trials = *trials
	}
	rep, err := merged.Render(*report, &scale, nil)
	if err != nil {
		return err
	}
	if len(rep.Leftover) > 0 {
		fmt.Fprintf(stderr, "slranalyze: %d of %d records match no %s-scale pause time (wrong -scale? try -report trials); analyzing the rest\n",
			len(rep.Leftover), len(recs), scale.Name)
		if len(rep.Leftover) == len(recs) {
			return fmt.Errorf("no records left to analyze")
		}
	}
	// A merged shard set short of the scale's trial count means a shard
	// (or the tail of a resume) is missing, and an over-full cell means
	// records from different sweeps were mixed — name the anomalies
	// rather than letting skewed CIs pass for a complete sweep. The check
	// is -protos-safe: it judges only the protocols the (filtered) grid
	// actually holds.
	if len(rep.Missing) > 0 {
		fmt.Fprintf(stderr, "slranalyze: %d grid cells deviate from %d trials (missing shard, unfinished resume, or mixed sweeps? a sweep run with -trials needs the same flag here):\n",
			len(rep.Missing), scale.Spec.TrialCount())
		for _, m := range rep.Missing {
			fmt.Fprintln(stderr, "  "+m)
		}
	}
	fmt.Fprintln(stdout, rep.Text)
	return nil
}

// inputList collects repeated -in flags.
type inputList []string

func (l *inputList) String() string { return strings.Join(*l, ",") }

func (l *inputList) Set(v string) error {
	*l = append(*l, v)
	return nil
}

// filterProtos keeps records whose protocol is in the comma-separated
// list (case-insensitive).
func filterProtos(recs []runner.Record, list string) []runner.Record {
	keep := make(map[scenario.ProtocolName]bool)
	for _, p := range strings.Split(list, ",") {
		p = strings.TrimSpace(p)
		if p != "" {
			keep[scenario.ProtocolName(strings.ToUpper(p))] = true
		}
	}
	var out []runner.Record
	for _, rec := range recs {
		if keep[scenario.ProtocolName(strings.ToUpper(rec.Protocol))] {
			out = append(out, rec)
		}
	}
	return out
}
