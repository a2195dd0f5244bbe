package runner

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"slr/internal/scenario"
	"slr/internal/sim"
)

// twoRecords is a well-formed JSONL stream of two minimal records.
const twoRecords = `{"protocol":"SRP","pause_seconds":0,"trial":0,"seed":1,"schema":2}
{"protocol":"SRP","pause_seconds":0,"trial":1,"seed":2,"schema":2}
`

func TestSalvageRecords(t *testing.T) {
	for _, tc := range []struct {
		name  string
		in    string
		recs  int
		clean int64
		kind  error // nil, ErrTruncatedTail, ErrMissingNewline, or errOther
	}{
		{"clean", twoRecords, 2, int64(len(twoRecords)), nil},
		{"empty", "", 0, 0, nil},
		{"blank lines", "\n" + twoRecords + "\n", 2, int64(len(twoRecords)) + 2, nil},
		{"cut mid-record", twoRecords + `{"protocol":"SRP","pause_se`, 2, int64(len(twoRecords)), ErrTruncatedTail},
		// The record bytes all arrived, only the final newline did not:
		// the record is salvaged, but the append point stays before it.
		{"cut before newline", strings.TrimSuffix(twoRecords, "\n"), 2,
			int64(strings.Index(twoRecords, "\n") + 1), ErrMissingNewline},
		{"garbage line", twoRecords + "protocol,pause_seconds\n", 2, int64(len(twoRecords)), errOther},
		{"foreign JSON object", `{"event":"login","user":"bob"}` + "\n", 0, 0, errOther},
		// Parsed in full despite the missing newline: foreign content, not
		// a killed-writer tail — resume must refuse, never truncate.
		{"foreign JSON no newline", `{"name":"my-app","port":8080}`, 0, 0, errOther},
		// An unterminated line that is no record prefix (records always
		// start with '{') is foreign too, not a mid-record cut.
		{"plain text no newline", "TODO buy milk", 0, 0, errOther},
	} {
		recs, clean, err := SalvageRecords(strings.NewReader(tc.in))
		if len(recs) != tc.recs || clean != tc.clean {
			t.Errorf("%s: got %d records, clean=%d; want %d, %d", tc.name, len(recs), clean, tc.recs, tc.clean)
		}
		switch tc.kind {
		case nil:
			if err != nil {
				t.Errorf("%s: err = %v, want nil", tc.name, err)
			}
		case errOther:
			if err == nil || errors.Is(err, ErrTruncatedTail) || errors.Is(err, ErrMissingNewline) {
				t.Errorf("%s: err = %v, want a non-kill-artifact error", tc.name, err)
			}
		default:
			if !errors.Is(err, tc.kind) {
				t.Errorf("%s: err = %v, want %v", tc.name, err, tc.kind)
			}
		}
	}
}

// TestSalvageRefusesSpanlessSeconds verifies a record whose seconds
// sim.Seconds refuses is refused by name, after the records before it:
// Result would otherwise wrap pause_seconds 1e300 to a negative pause and
// slranalyze print "pause=-9223372037s".
func TestSalvageRefusesSpanlessSeconds(t *testing.T) {
	for _, c := range []struct{ line, want string }{
		{`{"protocol":"AODV","pause_seconds":1e300,"trial":0,"seed":1,"schema":2}`, "pause_seconds 1e+300"},
		{`{"protocol":"AODV","pause_seconds":-1,"trial":0,"seed":1,"schema":2}`, "pause_seconds -1"},
		{`{"protocol":"AODV","pause_seconds":0,"trial":0,"seed":1,"schema":2,"flows":[{"flow":3,"sent":2,"recv":1,"first_recv_sec":1e300,"last_recv_sec":2}]}`, "flow 3 first_recv_sec 1e+300"},
		{`{"protocol":"AODV","pause_seconds":0,"trial":0,"seed":1,"schema":2,"flows":[{"flow":4,"sent":2,"recv":1,"first_recv_sec":1,"last_recv_sec":1e19}]}`, "flow 4 last_recv_sec 1e+19"},
	} {
		in := twoRecords + c.line + "\n"
		recs, clean, err := SalvageRecords(strings.NewReader(in))
		if len(recs) != 2 || clean != int64(len(twoRecords)) || err == nil || !strings.Contains(err.Error(), c.want) ||
			errors.Is(err, ErrTruncatedTail) || errors.Is(err, ErrMissingNewline) {
			t.Errorf("%s: got %d records, clean=%d, err %v; want 2, %d and a refusal quoting %q", c.line, len(recs), clean, err, len(twoRecords), c.want)
		}
	}
}

// errOther marks salvage-table cases whose error must NOT be a
// killed-writer signature (resume refuses instead of repairing).
var errOther = errors.New("any non-kill-artifact error")

func TestKeyIdentityJobVsRecord(t *testing.T) {
	jobs := GridJobs([]scenario.ProtocolName{scenario.SRP, scenario.AODV}, []float64{0, 50. / 900}, 2, 9,
		func(proto scenario.ProtocolName, pf float64, seed int64) scenario.Params {
			p := tinyParams(proto, seed)
			p.Mobility.Pause = sim.Time(pf * float64(p.Duration))
			return p
		})
	for _, j := range jobs {
		// The record carries the result's pause/seed, which scenario.Run
		// copies verbatim from Params; mirror that here without running.
		rec := NewRecord(j, scenario.Result{
			Protocol: j.Params.Protocol, Pause: j.Params.Mobility.Pause, Seed: j.Params.Seed,
		})
		if j.Key() != rec.Key() {
			t.Fatalf("job %d: key mismatch: job %+v, record %+v", j.Index, j.Key(), rec.Key())
		}
	}
	// And through actual JSONL bytes: float pauses must survive the trip.
	j := Job{Trial: 3, Params: tinyParams(scenario.SRP, 7)}
	ns := float64(50_000_000_000) // 50/9 s: an awkward decimal
	j.Params.Mobility.Pause = sim.Time(ns / 9)
	var buf bytes.Buffer
	e := NewJSONL(&buf)
	if err := e.Emit(j, scenario.Result{Protocol: scenario.SRP, Pause: j.Params.Mobility.Pause, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	recs, err := ReadRecords(&buf)
	if err != nil || len(recs) != 1 {
		t.Fatalf("read back: %v, %d records", err, len(recs))
	}
	if recs[0].Key() != j.Key() {
		t.Fatalf("key changed through JSONL: %+v vs %+v", recs[0].Key(), j.Key())
	}
}

func TestDedupRecords(t *testing.T) {
	recs, err := ReadRecords(strings.NewReader(twoRecords + twoRecords + twoRecords))
	if err != nil {
		t.Fatal(err)
	}
	recs[2].DeliveryRatio = 0.5 // a later duplicate must lose to the first copy
	out, dropped := DedupRecords(recs)
	if len(out) != 2 || dropped != 4 {
		t.Fatalf("got %d records, %d dropped; want 2, 4", len(out), dropped)
	}
	if out[0].DeliveryRatio != 0 {
		t.Fatalf("dedup kept a later duplicate: %+v", out[0])
	}
}

func TestSkipCompleted(t *testing.T) {
	jobs := TrialJobs(tinyParams(scenario.SRP, 1), 4)
	recs, err := ReadRecords(strings.NewReader(twoRecords))
	if err != nil {
		t.Fatal(err)
	}
	left := SkipCompleted(jobs, KeySet(recs))
	if len(left) != 2 {
		t.Fatalf("got %d jobs left, want 2", len(left))
	}
	for i, j := range left {
		if j.Trial != 2+i || j.Params.Seed != int64(3+i) {
			t.Fatalf("wrong job survived: %+v", j)
		}
	}
	if got := SkipCompleted(jobs, nil); len(got) != len(jobs) {
		t.Fatalf("nil done set dropped jobs: %d", len(got))
	}
}

// TestResumeAfterKillConvergesByteIdentically is the kill-mid-sweep
// regression test: stream a sweep to JSONL, cut the file mid-record as a
// kill would, resume, and require (a) only the missing jobs re-run and
// (b) the resumed file's bytes equal the uninterrupted run's.
func TestResumeAfterKillConvergesByteIdentically(t *testing.T) {
	const trials = 4
	jobs := TrialJobs(tinyParams(scenario.SRP, 60), trials)
	path := filepath.Join(t.TempDir(), "sweep.jsonl")

	// The uninterrupted reference. Workers=1 pins completion order to job
	// order, so the resumed file must match byte for byte, not just as a
	// record set.
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(jobs, Options{Workers: 1, Emitters: []Emitter{NewJSONL(f)}}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Kill: keep 2 complete records plus half of the third line.
	lines := bytes.SplitAfter(golden, []byte("\n"))
	cut := len(lines[0]) + len(lines[1]) + len(lines[2])/2
	if err := os.WriteFile(path, golden[:cut], 0o644); err != nil {
		t.Fatal(err)
	}

	salvaged, rf, dropped, err := ResumeJSONL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(salvaged) != 2 {
		t.Fatalf("salvaged %d records, want 2", len(salvaged))
	}
	if want := int64(cut - len(lines[0]) - len(lines[1])); dropped != want {
		t.Fatalf("dropped %d bytes, want %d", dropped, want)
	}
	missing := SkipCompleted(jobs, KeySet(salvaged))
	if len(missing) != trials-2 {
		t.Fatalf("resume would re-run %d jobs, want %d", len(missing), trials-2)
	}
	for i, j := range missing {
		if j.Trial != 2+i {
			t.Fatalf("resume re-runs trial %d, want %d", j.Trial, 2+i)
		}
	}
	if _, err := Run(missing, Options{Workers: 1, Emitters: []Emitter{NewJSONL(rf)}}); err != nil {
		t.Fatal(err)
	}
	rf.Close()

	resumed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resumed, golden) {
		t.Fatalf("resumed file differs from uninterrupted run:\n--- resumed ---\n%s--- golden ---\n%s", resumed, golden)
	}

	// A kill between the last record's bytes and its newline: resume
	// repairs the terminator in place rather than re-running the trial.
	if err := os.WriteFile(path, golden[:len(golden)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	salvaged, rf, dropped, err = ResumeJSONL(path)
	if err != nil {
		t.Fatal(err)
	}
	rf.Close()
	if len(salvaged) != trials || dropped != 0 {
		t.Fatalf("newline repair salvaged %d records, dropped %d; want %d, 0", len(salvaged), dropped, trials)
	}
	if left := SkipCompleted(jobs, KeySet(salvaged)); len(left) != 0 {
		t.Fatalf("newline repair would re-run %d jobs", len(left))
	}
	repaired, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(repaired, golden) {
		t.Fatalf("newline repair did not restore the file (%v):\n%s", err, repaired)
	}

	// Resuming a complete file is a no-op: nothing to run, nothing changed.
	salvaged, rf, dropped, err = ResumeJSONL(path)
	if err != nil {
		t.Fatal(err)
	}
	rf.Close()
	if len(salvaged) != trials || dropped != 0 {
		t.Fatalf("re-resume salvaged %d records, dropped %d", len(salvaged), dropped)
	}
	if left := SkipCompleted(jobs, KeySet(salvaged)); len(left) != 0 {
		t.Fatalf("re-resume would re-run %d jobs", len(left))
	}
}

// TestResumeJSONLRefusesForeignFile verifies resume does not truncate a
// non-empty file with no salvageable records and no killed-writer
// signature — e.g. a CSV mistaken for the JSONL.
func TestResumeJSONLRefusesForeignFile(t *testing.T) {
	for name, content := range map[string]string{
		"csv": "protocol,pause_seconds,trial\nSRP,0,0\n",
		// Valid JSONL of some other tool: unmarshals into a Record but has
		// no protocol field — must not be "salvaged" and appended to.
		"foreign jsonl": `{"event":"login","user":"bob"}` + "\n" + `{"event":"logout","user":"bob"}` + "\n",
		// Garbage spliced mid-file is not a kill artifact: truncating at
		// the damage would destroy every good record after it.
		"mid-file corruption": twoRecords + "!!corrupt!!\n" + twoRecords,
		// A one-line config file with no trailing newline parses as JSON
		// but is no record; wiping it with Truncate(0) would be data loss.
		"unterminated foreign json": `{"name":"my-app","port":8080}`,
		// So would wiping a text file that never held a record at all.
		"unterminated plain text": "TODO buy milk",
	} {
		path := filepath.Join(t.TempDir(), "not-a-sweep")
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := ResumeJSONL(path); err == nil {
			t.Fatalf("resume accepted a %s file", name)
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != content {
			t.Fatalf("refused %s resume still modified the file: %q, %v", name, got, err)
		}
	}

	// A fresh (missing) file is a normal cold start, not an error.
	fresh := filepath.Join(t.TempDir(), "new.jsonl")
	recs, f, dropped, err := ResumeJSONL(fresh)
	if err != nil || len(recs) != 0 || dropped != 0 {
		t.Fatalf("cold-start resume: %d records, %d dropped, %v", len(recs), dropped, err)
	}
	f.Close()
}

func TestCreateOutput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.jsonl")
	if err := os.WriteFile(path, []byte("precious sweep\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := CreateOutput(path, false); err == nil {
		t.Fatal("clobbered a non-empty file without -force")
	}
	if got, _ := os.ReadFile(path); string(got) != "precious sweep\n" {
		t.Fatalf("refused create still modified the file: %q", got)
	}
	f, err := CreateOutput(path, true)
	if err != nil {
		t.Fatalf("force overwrite: %v", err)
	}
	f.Close()
	// Empty or missing files are fair game without force.
	for _, p := range []string{path, filepath.Join(t.TempDir(), "new.jsonl")} {
		f, err := CreateOutput(p, false)
		if err != nil {
			t.Fatalf("create %s: %v", p, err)
		}
		f.Close()
	}
}
