package runner

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// ErrTruncatedTail marks a salvage error caused by a final line cut off
// before its newline — the signature a killed writer leaves, as opposed to
// a complete line that is not a record at all (which suggests the file was
// never sweep JSONL).
var ErrTruncatedTail = errors.New("truncated tail")

// ErrMissingNewline marks the narrower kill artifact of a final record
// whose bytes all arrived but whose terminating newline did not. The
// record itself is whole and usable for analysis (SalvageRecords returns
// it); only appending is unsafe until the newline is restored, which
// ResumeJSONL repairs in place instead of re-running the trial.
var ErrMissingNewline = errors.New("final record missing its newline")

// SalvageRecords reads a JSONL stream of Records, tolerating the damage a
// killed or failing writer leaves behind. It returns every usable record
// (one parseable JSON object per line; blank lines skipped), the byte
// offset just past the last newline-terminated record — the safe point
// for appending — and an error describing the first damage: a line cut
// off mid-record (ErrTruncatedTail), a final record missing only its
// newline (ErrMissingNewline; the record IS returned, it just cannot be
// appended after as-is), a line that is no record at all, a record whose
// seconds sim.Seconds refuses (naming the field), or an I/O failure. A nil error means the stream was clean JSONL to EOF.
func SalvageRecords(r io.Reader) (recs []Record, clean int64, err error) {
	br := bufio.NewReader(r)
	for {
		line, rerr := br.ReadBytes('\n')
		complete := rerr == nil
		if rerr != nil && rerr != io.EOF {
			return recs, clean, rerr
		}
		trimmed := bytes.TrimSpace(line)
		if len(trimmed) > 0 {
			var rec Record
			if uerr := json.Unmarshal(trimmed, &rec); uerr != nil {
				if complete {
					return recs, clean, fmt.Errorf("line after %d complete records: %w", len(recs), uerr)
				}
				if trimmed[0] != '{' {
					// Every record starts with '{', so any cut-off record's
					// remnant does too; an unterminated tail that does not
					// is foreign content (a notes file, binary junk), not a
					// killed writer — refuse rather than truncate it away.
					return recs, clean, fmt.Errorf("unterminated line is no record prefix after %d complete records", len(recs))
				}
				return recs, clean, fmt.Errorf("%w: record cut off after %d complete records", ErrTruncatedTail, len(recs))
			}
			if rec.Protocol == "" {
				// Any JSON object unmarshals into a Record; one without the
				// mandatory protocol field is some other file's line, and
				// "salvaging" it would let resume append sweep records into
				// an unrelated JSONL file. The line having parsed in full
				// proves it is foreign content, not a cut-off record — even
				// when the final newline is missing — so this is never the
				// killed-writer signature.
				return recs, clean, fmt.Errorf("line after %d complete records: JSON object is not a sweep record (no protocol field)", len(recs))
			}
			if serr := rec.checkSeconds(); serr != nil {
				return recs, clean, fmt.Errorf("line after %d complete records: %w", len(recs), serr)
			}
			if !complete {
				recs = append(recs, rec)
				return recs, clean, fmt.Errorf("%w after %d newline-terminated records (writer killed between record and newline)", ErrMissingNewline, len(recs)-1)
			}
			recs = append(recs, rec)
		}
		if complete {
			clean += int64(len(line))
			continue
		}
		return recs, clean, nil // clean EOF (any trailing whitespace is harmless)
	}
}

// ResumeJSONL opens a JSONL output for resumption: it salvages the
// complete records already present, truncates away any partial tail a
// killed writer left (dropped reports how many bytes), and returns the
// file positioned so the next write appends a fresh record. A missing file
// starts an empty sweep. The caller owns closing f.
//
// Feed the records' KeySet to SkipCompleted and attach NewJSONL(f) to the
// runner: only the missing trials run, and the file converges to the same
// set of records a never-interrupted sweep would have written.
func ResumeJSONL(path string) (recs []Record, f *os.File, dropped int64, err error) {
	f, err = os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, 0, err
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err == nil {
		_, err = f.Seek(0, io.SeekStart)
	}
	if err != nil {
		f.Close()
		return nil, nil, 0, err
	}
	recs, clean, serr := SalvageRecords(f)
	switch {
	case serr == nil || errors.Is(serr, ErrTruncatedTail):
		// Clean file, or a tail cut off mid-record: truncate to the last
		// newline-terminated record and re-run the cut-off trial.
	case errors.Is(serr, ErrMissingNewline):
		// The final record is whole — only its terminator was lost. Write
		// the newline back instead of discarding a deterministic trial.
		if _, err := f.Seek(0, io.SeekEnd); err != nil {
			f.Close()
			return nil, nil, 0, err
		}
		if _, err := f.WriteString("\n"); err != nil {
			f.Close()
			return nil, nil, 0, err
		}
		return recs, f, 0, nil
	default:
		// Damage without a killed-writer signature — a complete line that
		// is no record — is not what resume repairs: the file is either not
		// a sweep output at all (a log, a notes file) or a sweep with garbage
		// spliced mid-file, where truncating at the damage would destroy
		// every good record after it. Refuse and leave the file untouched.
		f.Close()
		return nil, nil, 0, fmt.Errorf("%s: %v; not a resumable JSONL sweep (fix or remove the damaged line first)", path, serr)
	}
	if clean < size {
		if err := f.Truncate(clean); err != nil {
			f.Close()
			return nil, nil, 0, err
		}
	}
	if _, err := f.Seek(clean, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, 0, err
	}
	return recs, f, size - clean, nil
}

// ErrWouldClobber marks a CreateOutput refusal, so callers can
// distinguish "the file has data" from I/O errors when adding hints.
var ErrWouldClobber = errors.New("refusing to overwrite")

// CreateOutput creates a results file, refusing with an ErrWouldClobber
// error if path holds data and force is not set: overwriting hours of
// sweep output because a flag pointed at the wrong path should be an
// explicit decision, not a silent truncation.
func CreateOutput(path string, force bool) (*os.File, error) {
	if !force {
		if fi, err := os.Stat(path); err == nil && fi.Size() > 0 {
			return nil, fmt.Errorf("%w: %s already holds %d bytes; use -force to overwrite", ErrWouldClobber, path, fi.Size())
		}
	}
	return os.Create(path)
}
