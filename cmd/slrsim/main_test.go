package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"slr/internal/runner"
)

func TestRunSmallScenario(t *testing.T) {
	err := run([]string{
		"-protocol", "SRP", "-nodes", "12", "-width", "600", "-height", "300",
		"-duration", "10s", "-flows", "3", "-seed", "1", "-check",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsUnknownProtocol(t *testing.T) {
	err := run([]string{"-protocol", "RIP"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "unknown protocol") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunLowercaseProtocol(t *testing.T) {
	err := run([]string{
		"-protocol", "olsr", "-nodes", "6", "-width", "400", "-height", "200",
		"-duration", "5s", "-flows", "2",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunMultiTrial(t *testing.T) {
	err := run([]string{
		"-protocol", "AODV", "-nodes", "8", "-width", "500", "-height", "250",
		"-duration", "5s", "-flows", "2", "-trials", "2",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-bogus"}, io.Discard); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestRunSpecFile(t *testing.T) {
	if err := run([]string{"-spec", "../../examples/scenarios/tiny-smoke.json"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunSpecWithFlagOverrides(t *testing.T) {
	// Shrink the built-in paper spec down to test size via explicit flags.
	err := run([]string{
		"-spec", "paper-default", "-nodes", "12", "-width", "600", "-height", "300",
		"-duration", "10s", "-flows", "3", "-trials", "1",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunSpecUnknown(t *testing.T) {
	if err := run([]string{"-spec", "no-such-spec"}, io.Discard); err == nil {
		t.Fatal("unknown spec accepted")
	}
}

// TestRunJSONL drives the one file output slrsim keeps: -jsonl writes one
// record per trial in trial order (whichever worker finishes first),
// refuses to clobber, and -force overrides that.
func TestRunJSONL(t *testing.T) {
	base := []string{
		"-protocol", "SRP", "-nodes", "8", "-width", "500", "-height", "250",
		"-duration", "5s", "-flows", "2", "-trials", "3", "-seed", "7",
	}
	out := filepath.Join(t.TempDir(), "out.jsonl")
	if err := run(append(base, "-jsonl", out), io.Discard); err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := runner.ReadRecords(bytes.NewReader(golden))
	if err != nil || len(recs) != 3 || recs[0].Seed != 7 || recs[1].Seed != 8 || recs[2].Seed != 9 {
		t.Fatalf("want seeds 7, 8, 9 in trial order (err %v):\n%s", err, golden)
	}
	if err := run(append(base, "-jsonl", out), io.Discard); err == nil || !strings.Contains(err.Error(), "-force") {
		t.Fatalf("clobber not refused: %v", err)
	}
	if got, _ := os.ReadFile(out); !bytes.Equal(got, golden) {
		t.Fatal("refused clobber modified the file")
	}
	if err := run(append(base, "-jsonl", out, "-force"), io.Discard); err != nil {
		t.Fatalf("-force: %v", err)
	}
}

// TestRunRejectsUnrunnable: -trials must name at least one trial (a
// negative count used to panic in runner.TrialJobs, zero printed nothing
// and exited 0), and flag values pass the rules the same values in a spec
// file must pass — with or without a -spec baseline under them.
func TestRunRejectsUnrunnable(t *testing.T) {
	const tiny = "../../examples/scenarios/tiny-smoke.json"
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-trials", "0"}, "-trials"},
		{[]string{"-trials", "-1"}, "-trials"},
		{[]string{"-spec", tiny, "-trials", "0"}, "-trials"},
		{[]string{"-nodes", "1"}, "nodes 1 must be >= 2"},
		{[]string{"-flows", "0"}, "flows=0"},
		{[]string{"-spec", tiny, "-nodes", "1"}, "nodes 1 must be >= 2"},
		{[]string{"-speed", "-1"}, "speeds"},
		{[]string{"-duration", "0s"}, "duration"},
		// A TTL whose discovery back-off overflows sim.Time is refused
		// before the trial, not a panic in the middle of it.
		{[]string{"-protocol", "AODV", "-pparam", "ttl_0=2e11", "-duration", "1s"}, "ttl_0 200000000000 must be in [1, 255]"},
	} {
		if err := run(tc.args, io.Discard); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) = %v, want an error mentioning %q", tc.args, err, tc.want)
		}
	}
}

// TestRunRefusesSpansPastTheClock: a -duration or -pause past
// sim.MaxSpan is refused by name before the trial starts.
func TestRunRefusesSpansPastTheClock(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-spec", "../../examples/scenarios/tiny-smoke.json", "-duration", "2000000h"}, "duration_seconds 7.2e+09"},
		{[]string{"-spec", "paper-default", "-pause", "2000000h"}, "pause_seconds 7.2e+09"},
	} {
		done := make(chan error, 1)
		go func() { done <- run(tc.args, io.Discard) }()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("run(%v) = %v, want an error mentioning %q", tc.args, err, tc.want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("run(%v) still running after 10 s, want an immediate refusal", tc.args)
		}
	}
}

// TestRunOneJobOnly: slrsim runs one scenario. Sweep slicing and resuming
// live in cmd/experiments, so the flag package itself refuses their flags
// here — there is no allowlist to keep in step.
func TestRunOneJobOnly(t *testing.T) {
	for _, args := range [][]string{
		{"-worker", "http://127.0.0.1:1"},
		{"-shard", "1/2"},
		{"-resume"},
		{"-parallel", "2"},
	} {
		want := "flag provided but not defined: " + args[0]
		if err := run(args, io.Discard); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("run(%v) = %v, want %q", args, err, want)
		}
	}
}

// TestProfilesWriteBothFiles: -cpuprofile and -memprofile each leave a
// non-empty pprof file once the run returns, the heap profile's in-use
// view holds the protocol state of a trial that was still live, and the
// records are the bytes a run without profiling writes.
func TestProfilesWriteBothFiles(t *testing.T) {
	// Sample every allocation, so a 12-node trial's tables show.
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	spec := []string{"-spec", "../../examples/scenarios/tiny-smoke.json", "-trials", "2"}
	profiled, plain := filepath.Join(dir, "profiled.jsonl"), filepath.Join(dir, "plain.jsonl")
	if err := run(append(spec, "-cpuprofile", cpu, "-memprofile", mem, "-jsonl", profiled), io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s: %v, want a non-empty profile", path, err)
		}
	}
	if err := run(append(spec, "-jsonl", plain), io.Discard); err != nil {
		t.Fatal(err)
	}
	a, errA := os.ReadFile(profiled)
	b, errB := os.ReadFile(plain)
	if errA != nil || errB != nil || len(a) == 0 || !bytes.Equal(a, b) {
		t.Errorf("records with -memprofile differ from those without (errors %v, %v):\n%s\nvs\n%s", errA, errB, a, b)
	}

	raw, err := os.ReadFile(mem)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := inUseSamples(raw)
	if err != nil {
		t.Fatal(err)
	}
	// Package state the routing packages build at init is live at any
	// instant; a trial's own is allocated under scenario.Run, at least one
	// protocol instance per node of tiny-smoke's 12.
	held := int64(0)
	for _, s := range samples {
		if slices.Contains(s.stack, "slr/internal/scenario.Run") && slices.ContainsFunc(s.stack, func(fn string) bool {
			return strings.HasPrefix(fn, "slr/internal/routing/")
		}) {
			held += s.objects
		}
	}
	if held < 12 {
		t.Errorf("the heap profile holds %d objects a trial's routing code allocated, want at least the 12 nodes' protocols", held)
	}
}

// heapSample is one in-use sample of a heap profile: a stack, as function
// names, innermost first, and the count of live objects it allocated.
type heapSample struct {
	stack   []string
	objects int64
}

// inUseSamples decodes a gzipped pprof heap profile and returns its
// samples with live objects. Field numbers are those of pprof's
// profile.proto.
func inUseSamples(gz []byte) ([]heapSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	msg, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var (
		strs      []string
		types     []uint64                // sample_type, as string indices
		samples   [][2][]uint64           // location ids, values
		locations = map[uint64][]uint64{} // location id -> function ids
		funcs     = map[uint64]uint64{}   // function id -> name index
	)
	err = fields(msg, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return fields(b, func(num int, v uint64, _ []byte) error {
				if num == 1 {
					types = append(types, v)
				}
				return nil
			})
		case 2: // sample
			var s [2][]uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				if num == 1 || num == 2 {
					s[num-1] = uints(s[num-1], v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locations[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	inuse := -1
	for i, ti := range types {
		if ti < uint64(len(strs)) && strs[ti] == "inuse_objects" {
			inuse = i
		}
	}
	if inuse < 0 {
		return nil, fmt.Errorf("no inuse_objects sample type among %d", len(types))
	}
	var live []heapSample
	for _, s := range samples {
		if inuse >= len(s[1]) || s[1][inuse] == 0 {
			continue
		}
		var stack []string
		for _, loc := range s[0] {
			for _, fn := range locations[loc] {
				if ni := funcs[fn]; ni < uint64(len(strs)) {
					stack = append(stack, strs[ni])
				}
			}
		}
		live = append(live, heapSample{stack: stack, objects: int64(s[1][inuse])})
	}
	return live, nil
}

// fields walks the fields of one protobuf message: varints arrive in v,
// length-delimited fields in b; fixed-width fields are skipped.
func fields(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("truncated protobuf key")
		}
		msg = msg[n:]
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			if v, n = binary.Uvarint(msg); n <= 0 {
				return errors.New("truncated protobuf varint")
			}
		case 1:
			n = 8
		case 2:
			l, m := binary.Uvarint(msg)
			if m <= 0 || uint64(len(msg)-m) < l {
				return errors.New("truncated protobuf field")
			}
			b, n = msg[m:m+int(l)], m+int(l)
		case 5:
			n = 4
		default:
			return fmt.Errorf("protobuf wire type %d", key&7)
		}
		if n > len(msg) {
			return errors.New("truncated protobuf field")
		}
		msg = msg[n:]
		if key&7 == 0 || key&7 == 2 {
			if err := fn(int(key>>3), v, b); err != nil {
				return err
			}
		}
	}
	return nil
}

// uints appends a repeated integer field, given as one varint (b == nil)
// or as a packed run.
func uints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst, b = append(dst, v), b[n:]
	}
	return dst
}
