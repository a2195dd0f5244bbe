package runner

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Key identifies one trial across processes: the (protocol, pause, trial,
// seed) coordinates that are fixed at flatten time and serialized into
// every Record. Because trials are deterministic, two records with the
// same Key hold the same measurements, so the key is what sharded sweeps
// de-duplicate on, what resume uses to skip already-completed jobs, and
// what the sweep coordinator (internal/sweepd) leases and acknowledges
// over the wire.
//
// Pause is in seconds, exactly as serialized: float64 values survive the
// JSON round trip bit for bit (the encoder emits the shortest
// representation that parses back to the same value), so keys built from a
// Job and from its re-read Record always compare equal.
type Key struct {
	Protocol string
	Pause    float64
	Trial    int
	Seed     int64
}

// String renders the key's canonical encoding,
// "protocol|pause|trial|seed" — e.g. "SRP|7.5|2|102". Pause uses the
// shortest float representation that parses back to the same value (the
// same rule the JSON encoder applies to pause_seconds), so String is
// injective: two keys render equal strings exactly when they are equal.
// This one encoding is used everywhere keys are compared or transmitted —
// dedup maps, resume skip-sets, the coordinator's lease table, and the
// /v1 wire format — so the equality semantics cannot drift between them.
func (k Key) String() string {
	return k.Protocol + "|" + strconv.FormatFloat(k.Pause, 'g', -1, 64) +
		"|" + strconv.Itoa(k.Trial) + "|" + strconv.FormatInt(k.Seed, 10)
}

// ParseKey inverts Key.String. It rejects anything String cannot have
// produced: a wrong field count, an empty protocol (no Record carries
// one; see SalvageRecords), or unparsable numbers.
func ParseKey(s string) (Key, error) {
	parts := strings.Split(s, "|")
	if len(parts) != 4 {
		return Key{}, fmt.Errorf("key %q: want protocol|pause|trial|seed", s)
	}
	if parts[0] == "" {
		return Key{}, fmt.Errorf("key %q: empty protocol", s)
	}
	pause, err := strconv.ParseFloat(parts[1], 64)
	if err != nil {
		return Key{}, fmt.Errorf("key %q: bad pause: %v", s, err)
	}
	if math.IsNaN(pause) {
		// No record carries one (JSON cannot), and a NaN key would not
		// even equal itself.
		return Key{}, fmt.Errorf("key %q: pause is NaN", s)
	}
	trial, err := strconv.Atoi(parts[2])
	if err != nil {
		return Key{}, fmt.Errorf("key %q: bad trial: %v", s, err)
	}
	seed, err := strconv.ParseInt(parts[3], 10, 64)
	if err != nil {
		return Key{}, fmt.Errorf("key %q: bad seed: %v", s, err)
	}
	return Key{Protocol: parts[0], Pause: pause, Trial: trial, Seed: seed}, nil
}

// Key returns the job's identity key.
func (j Job) Key() Key {
	return Key{
		Protocol: string(j.Params.Protocol),
		Pause:    j.Params.Pause.Seconds(),
		Trial:    j.Trial,
		Seed:     j.Params.Seed,
	}
}

// Key returns the record's identity key.
func (r Record) Key() Key {
	return Key{Protocol: r.Protocol, Pause: r.PauseSeconds, Trial: r.Trial, Seed: r.Seed}
}

// KeySet collects the canonical identity keys of completed records.
func KeySet(recs []Record) map[string]bool {
	if len(recs) == 0 {
		return nil
	}
	done := make(map[string]bool, len(recs))
	for _, rec := range recs {
		done[rec.Key().String()] = true
	}
	return done
}

// SkipCompleted drops jobs whose canonical identity key is in done — the
// resume filter: feed it the keys salvaged from an existing JSONL output
// and only the missing trials run.
func SkipCompleted(jobs []Job, done map[string]bool) []Job {
	if len(done) == 0 {
		return jobs
	}
	out := make([]Job, 0, len(jobs))
	for _, j := range jobs {
		if !done[j.Key().String()] {
			out = append(out, j)
		}
	}
	return out
}

// DedupRecords drops records whose identity key was already seen, keeping
// the first occurrence, and reports how many were dropped. Merging shard
// outputs or a resumed file with its own partial predecessor can repeat a
// trial; determinism makes the copies identical, so keeping the first is
// lossless.
// Dedup runs on every merge path (often redundantly, as a cheap
// invariant), so the no-duplicates case returns the input slice as is.
func DedupRecords(recs []Record) ([]Record, int) {
	seen := make(map[string]bool, len(recs))
	out := recs
	dropped := 0
	for i, rec := range recs {
		k := rec.Key().String()
		if seen[k] {
			if dropped == 0 {
				out = append([]Record(nil), recs[:i]...)
			}
			dropped++
			continue
		}
		seen[k] = true
		if dropped > 0 {
			out = append(out, rec)
		}
	}
	return out, dropped
}
