// Command slrbench is the repo's benchmark: four routed workloads measured
// end to end (host time, CPU time, set-up time, peak memory) and, in a
// separate traced mode, layer by layer from outside the simulator. See
// README.md in this directory for the workloads, the metric definitions
// and how the layer metrics are expected to move the end-to-end ones.
//
// One run measures one workload in one mode and prints a table followed
// by one JSON result line:
//
//	go run ./cmd/slrbench -workload city-500 -seed 1 -seconds 20 -trace 0
//
// Without -trace it becomes a driver: it runs every selected workload in
// both modes, each run in a child process of its own so that heap state
// and peak memory do not leak between them, -runs times with seeds
// seed..seed+runs-1, and prints the quartiles of every metric:
//
//	go run ./cmd/slrbench -runs 10 -json baseline.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strconv"
)

// defaultSeconds is the pass loop's budget; BENCHMARK.json's run_seconds
// repeats it.
const defaultSeconds = 20

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "slrbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("slrbench", flag.ContinueOnError)
	var (
		name     = fs.String("workload", "", "workload to run; empty selects all of them (driver mode only)")
		seed     = fs.Int64("seed", 1, "input seed: trial seeds, hence topology, mobility and traffic, derive from it")
		seconds  = fs.Float64("seconds", defaultSeconds, "measuring budget of one run's pass loop")
		trace    = fs.Int("trace", -1, "0: one end-to-end run; 1: one per-layer run; unset: drive both in child processes")
		passes   = fs.Int("passes", 0, "run exactly this many passes instead of filling -seconds")
		runs     = fs.Int("runs", 1, "driver mode: runs per workload and mode, on consecutive seeds")
		jsonPath = fs.String("json", "", "also write the results, with machine info, to this `file`")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}

	selected := workloads
	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			return err
		}
		selected = []workload{w}
	}
	if *trace < 0 {
		return drive(selected, *seed, *runs, args, *jsonPath, stdout)
	}
	if len(selected) != 1 {
		return fmt.Errorf("-trace %d needs -workload", *trace)
	}

	w := selected[0]
	s, err := loadSpec(w.name)
	if err != nil {
		return err
	}
	measure := runEndToEnd
	if *trace == 1 {
		measure = runPerLayer
	}
	rep, err := measure(w, s, config{seed: *seed, seconds: *seconds, passes: *passes})
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, rep)
	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, struct {
			Machine machine `json:"machine"`
			report
		}{machineInfo(), rep}); err != nil {
			return err
		}
	}
	res := result{Correct: rep.Failed == 0, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]measured{}}
	for _, m := range rep.Metrics {
		res.Metrics[m.Name] = measured{m.Value, m.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d trials failed", w.name, rep.Failed, rep.Attempted)
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// spread summarises one metric over the runs of one workload and mode.
type spread struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	// Spread is (Q3-Q1)/Median, what a metric's bound is judged against;
	// 0 for a metric whose median is 0.
	Spread float64   `json:"spread"`
	Values []float64 `json:"values"`
}

// spreads summarises every metric of results, in name order. The quartiles
// are those of Python's statistics.quantiles(values, n=4), which is what
// the acceptance rule for this benchmark is stated in.
func spreads(results []result) []spread {
	var names []string
	for name := range results[0].Metrics {
		names = append(names, name)
	}
	slices.Sort(names)
	out := make([]spread, len(names))
	for i, name := range names {
		vs := make([]float64, len(results))
		for j, r := range results {
			vs[j] = r.Metrics[name].Value
		}
		q1, q3 := quartiles(vs)
		out[i] = spread{
			Name: name, Unit: results[0].Metrics[name].Unit,
			Median: median(vs), Q1: q1, Q3: q3,
			Min: slices.Min(vs), Max: slices.Max(vs), Values: vs,
		}
		if m := out[i].Median; m != 0 {
			out[i].Spread = (q3 - q1) / m
		}
	}
	return out
}

// quartiles returns the first and third quartile by the exclusive method.
func quartiles(vs []float64) (q1, q3 float64) {
	s := slices.Clone(vs)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// driven is the driver's record of one workload.
type driven struct {
	Workload string   `json:"workload"`
	Seeds    []int64  `json:"seeds"`
	EndToEnd []spread `json:"end_to_end"`
	PerLayer []spread `json:"per_layer"`
}

// drive runs every selected workload in both modes, one child process per
// run, and prints how each metric spreads over the seeds.
func drive(selected []workload, seed int64, runs int, args []string, jsonPath string, stdout io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var all []driven
	for _, w := range selected {
		d := driven{Workload: w.name}
		for i := 0; i < runs; i++ {
			d.Seeds = append(d.Seeds, seed+int64(i))
		}
		for trace, into := range []*[]spread{&d.EndToEnd, &d.PerLayer} {
			var results []result
			for _, sd := range d.Seeds {
				res, err := child(self, args, w.name, sd, trace, stdout)
				if err != nil {
					return err
				}
				results = append(results, res)
			}
			*into = spreads(results)
		}
		all = append(all, d)
	}
	for _, d := range all {
		fmt.Fprintf(stdout, "%s over seeds %v\n", d.Workload, d.Seeds)
		for _, sp := range slices.Concat(d.EndToEnd, d.PerLayer) {
			fmt.Fprintf(stdout, "  %-34s %16.6f %-8s q1 %.6f q3 %.6f min %.6f max %.6f spread %.3f\n",
				sp.Name, sp.Median, sp.Unit, sp.Q1, sp.Q3, sp.Min, sp.Max, sp.Spread)
		}
	}
	if jsonPath == "" {
		return nil
	}
	return writeJSON(jsonPath, struct {
		Machine   machine  `json:"machine"`
		Workloads []driven `json:"workloads"`
	}{machineInfo(), all})
}

// child runs one workload in one mode in a process of its own, passing its
// table through and returning its result line. The parent's arguments
// come first, so -seconds and -passes carry over and the flags set here
// override the rest.
func child(self string, args []string, name string, seed int64, trace int, stdout io.Writer) (result, error) {
	argv := append(append([]string{}, args...),
		"-workload", name, "-seed", strconv.FormatInt(seed, 10), "-trace", strconv.Itoa(trace), "-json", "")
	cmd := exec.Command(self, argv...)
	cmd.Stderr = os.Stderr
	var buf bytes.Buffer
	cmd.Stdout = &buf
	runErr := cmd.Run()
	out := bytes.TrimRight(buf.Bytes(), "\n")
	cut := bytes.LastIndexByte(out, '\n') + 1
	last := out[cut:]
	if _, err := stdout.Write(out[:cut]); err != nil {
		return result{}, err
	}
	if runErr != nil {
		return result{}, fmt.Errorf("%s seed %d trace %d: %w", name, seed, trace, runErr)
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return result{}, fmt.Errorf("%s seed %d trace %d: result line: %w", name, seed, trace, err)
	}
	return res, nil
}
