package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// Sampled stack attribution: a runtime/pprof CPU profile of the traced
// passes is decoded here (no module dependency, no `go tool pprof`
// subprocess) and every sample is given to one layer, the repo's package
// that owns the leaf-most slr/internal frame on its stack.

// frame is one function on a sampled stack.
type frame struct {
	fn   string // fully qualified, e.g. slr/internal/radio.shadowing.LinkRange
	file string // source path of the function
}

// sample is one distinct stack, leaf first, and how often it was hit.
type sample struct {
	stack []frame
	count int64
}

// layers lists the per-layer CPU ledger in report order. Every sample
// lands in exactly one of them, so their cpu_s sum to the traced passes'
// CPU time.
var layers = []string{
	"sim", "radio.channel", "radio.grid", "radio.propagation", "mac",
	"netstack", "mobility", "traffic", "metrics",
	"routing.srp", "routing.ldr", "routing.aodv", "routing.dsr", "routing.olsr", "routing.rcommon",
	"label", "runner", "runtime.gc", "other",
}

// pkgLayer maps a package path under slr/internal/ to its layer. label is
// the dense-label arithmetic (label+frac+core); runner is everything that
// drives a trial rather than simulates it.
var pkgLayer = map[string]string{
	"sim":             "sim",
	"mac":             "mac",
	"netstack":        "netstack",
	"mobility":        "mobility",
	"traffic":         "traffic",
	"metrics":         "metrics",
	"routing/srp":     "routing.srp",
	"routing/ldr":     "routing.ldr",
	"routing/aodv":    "routing.aodv",
	"routing/dsr":     "routing.dsr",
	"routing/olsr":    "routing.olsr",
	"routing/rcommon": "routing.rcommon",
	"label":           "label",
	"frac":            "label",
	"core":            "label",
	"runner":          "runner",
	"scenario":        "runner",
	"spec":            "runner",
	"routing":         "runner",
	"loopcheck":       "runner",
}

// radioFileLayer splits the radio package by source file.
var radioFileLayer = map[string]string{
	"radio.go":       "radio.channel",
	"grid.go":        "radio.grid",
	"propagation.go": "radio.propagation",
}

// helperPkgs hold leaf helpers with no cost of their own to report (point
// arithmetic, registry lookups); their samples belong to the caller.
var helperPkgs = map[string]bool{"geo": true, "registry": true}

// gcWorkers are the roots of the runtime's background collector
// goroutines. Allocation-time assist work sits under an slr frame and
// stays with the layer that allocated.
var gcWorkers = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}

const internalPrefix = "slr/internal/"

// owner returns the layer that owns a stack (leaf first), and whether the
// sample was taken inside the allocator (the cross-cutting runtime.malloc
// ledger line, which is not part of the per-layer sum).
func owner(stack []frame) (layer string, malloc bool) {
	gc := false
	for _, f := range stack {
		if f.fn == "runtime.mallocgc" {
			malloc = true
		}
		for _, w := range gcWorkers {
			if strings.HasPrefix(f.fn, w) {
				gc = true
			}
		}
		if layer != "" {
			continue
		}
		rest, ok := strings.CutPrefix(f.fn, internalPrefix)
		if !ok {
			continue
		}
		// Package directories hold no dots, so the package path ends at
		// the first one (also for generic instantiations, whose type
		// arguments may hold further slashes).
		pkg, _, _ := strings.Cut(rest, ".")
		switch {
		case helperPkgs[pkg]:
		case pkg == "radio":
			if layer = radioFileLayer[path.Base(f.file)]; layer == "" {
				layer = "other"
			}
		default:
			if layer = pkgLayer[pkg]; layer == "" {
				layer = "other"
			}
		}
	}
	switch {
	case layer != "":
	case gc:
		layer = "runtime.gc"
	default:
		layer = "other"
	}
	return layer, malloc
}

// mallocLine is the ledger's cross-cutting line: samples inside the
// allocator, each of which also sits in its owner's layer.
const mallocLine = "runtime.malloc"

// ledger is the sample count per layer, and under mallocLine.
type ledger struct {
	byLayer map[string]int64
	total   int64
}

func (l *ledger) add(samples []sample) {
	if l.byLayer == nil {
		l.byLayer = make(map[string]int64)
	}
	for _, s := range samples {
		layer, malloc := owner(s.stack)
		l.byLayer[layer] += s.count
		if malloc {
			l.byLayer[mallocLine] += s.count
		}
		l.total += s.count
	}
}

// share returns a layer's fraction of all samples.
func (l *ledger) share(layer string) float64 {
	if l.total == 0 {
		return 0
	}
	return float64(l.byLayer[layer]) / float64(l.total)
}

// parseProfile decodes a gzipped pprof CPU profile into its samples, using
// the first sample value (the hit count).
func parseProfile(gz []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	// Field numbers are those of pprof's profile.proto.
	type rawFunc struct{ name, file uint64 }
	var (
		strs      []string
		funcs     = map[uint64]rawFunc{}
		locations = map[uint64][]uint64{} // location id -> function ids, innermost inlined first
		rawStacks [][]uint64
		counts    []int64
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var locs, vals []uint64
			if err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					locs = appendUints(locs, v, b)
				case 2:
					vals = appendUints(vals, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(vals) == 0 {
				return errors.New("profile: sample without a value")
			}
			rawStacks = append(rawStacks, locs)
			counts = append(counts, int64(vals[0]))
		case 4: // Location
			var id uint64
			var fns []uint64
			if err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locations[id] = fns
		case 5: // Function
			var id uint64
			var f rawFunc
			if err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					f.name = v
				case 4:
					f.file = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcs[id] = f
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	samples := make([]sample, len(rawStacks))
	for i, locs := range rawStacks {
		var stack []frame
		for _, loc := range locs {
			for _, fid := range locations[loc] {
				f := funcs[fid]
				stack = append(stack, frame{fn: str(f.name), file: str(f.file)})
			}
		}
		samples[i] = sample{stack: stack, count: counts[i]}
	}
	return samples, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks the fields of one protobuf message. Varint fields arrive
// in v, length-delimited ones in b; fixed-width fields are skipped.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(msg) < w {
				return errTruncated
			}
			msg = msg[w:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			if err := fn(num, 0, msg[n:n+int(l)]); err != nil {
				return err
			}
			msg = msg[n+int(l):]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendUints appends a repeated integer field, given either as one
// varint (b == nil) or as a packed run.
func appendUints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst
}
