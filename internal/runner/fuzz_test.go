package runner

import (
	"bytes"
	"os"
	"testing"
)

// goldenJSONL is a committed sweep output, the fuzz target's seed.
const goldenJSONL = "../../testdata/olsr-small.golden.jsonl"

// FuzzSalvageRecords feeds arbitrary bytes to the JSONL salvage every
// reader of sweep output shares (resume and slranalyze). It must never
// panic, and the clean offset it reports must be a real append point:
// inside the input, with everything before it salvaging cleanly to that
// same offset.
func FuzzSalvageRecords(f *testing.F) {
	golden, err := os.ReadFile(goldenJSONL)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	line := golden[:bytes.IndexByte(golden, '\n')+1]
	f.Add(line[:len(line)-1]) // final newline lost
	f.Add(line[:len(line)/2]) // killed mid-record
	f.Add(append(bytes.Clone(line), "not a record\n"...))
	// Seconds past sim.MaxSpan, which Result would wrap negative.
	f.Add([]byte(`{"protocol":"AODV","pause_seconds":1e300,"trial":0,"seed":1,"schema":2}` + "\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, clean, _ := SalvageRecords(bytes.NewReader(data))
		if clean < 0 || clean > int64(len(data)) {
			t.Fatalf("clean offset %d outside the %d-byte input", clean, len(data))
		}
		prefix, cleanAgain, err := SalvageRecords(bytes.NewReader(data[:clean]))
		if err != nil || cleanAgain != clean {
			t.Fatalf("prefix up to the clean offset %d re-salvages to %d, %v", clean, cleanAgain, err)
		}
		if len(prefix) > len(recs) {
			t.Fatalf("clean prefix holds %d records, the whole input only %d", len(prefix), len(recs))
		}
	})
}
