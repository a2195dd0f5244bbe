package runner

import "strconv"

// Key identifies one trial across processes: the (protocol, pause, trial,
// seed) coordinates that are fixed at flatten time and serialized into
// every Record. Because trials are deterministic, two records with the
// same Key hold the same measurements, so the key is what sharded sweeps
// de-duplicate on and what resume uses to skip already-completed jobs.
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
// This one encoding is used everywhere keys are compared — dedup maps and
// resume skip-sets — so the equality semantics cannot drift between them.
func (k Key) String() string {
	return k.Protocol + "|" + strconv.FormatFloat(k.Pause, 'g', -1, 64) +
		"|" + strconv.Itoa(k.Trial) + "|" + strconv.FormatInt(k.Seed, 10)
}

// Key returns the job's identity key.
func (j Job) Key() Key {
	return Key{
		Protocol: string(j.Params.Protocol),
		Pause:    j.Params.Mobility.Pause.Seconds(),
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
