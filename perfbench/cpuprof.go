package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuBuckets are the per-layer CPU shares a traced run reports, in output
// order. A sample lands in cpu.gc when any frame of its stack is garbage
// collector work; otherwise in the bucket of its leaf frame's package.
var cpuBuckets = []string{
	"cpu.bfp", "cpu.fp16", "cpu.accel", "cpu.kernels", "cpu.rms", "cpu.tenant",
	"cpu.codec", "cpu.rtl", "cpu.decompose", "cpu.gc", "cpu.other",
}

// pkgBuckets maps a leaf frame's package to its bucket.
var pkgBuckets = map[string]string{
	"mlvfpga/internal/bfp":       "cpu.bfp",
	"mlvfpga/internal/fp16":      "cpu.fp16",
	"mlvfpga/internal/accel":     "cpu.accel",
	"mlvfpga/internal/kernels":   "cpu.kernels",
	"mlvfpga/internal/rms":       "cpu.rms",
	"mlvfpga/internal/tenant":    "cpu.tenant",
	"encoding/json":              "cpu.codec",
	"strconv":                    "cpu.codec",
	"mlvfpga/internal/rtl":       "cpu.rtl",
	"mlvfpga/internal/decompose": "cpu.decompose",
}

// funcPackage returns the import path of a symbolized Go function name
// such as "mlvfpga/internal/bfp.(*PackedMatrix).rowDot".
func funcPackage(fn string) string {
	dir, rest := "", fn
	if i := strings.LastIndex(fn, "/"); i >= 0 {
		dir, rest = fn[:i+1], fn[i+1:]
	}
	if i := strings.Index(rest, "."); i >= 0 {
		rest = rest[:i]
	}
	return dir + rest
}

// isGCFrame reports whether a frame belongs to the garbage collector:
// background mark workers, mark assists charged to allocating goroutines,
// and the background sweeper and scavenger.
func isGCFrame(fn string) bool {
	return strings.HasPrefix(fn, "runtime.gc") ||
		fn == "runtime.bgsweep" || fn == "runtime.bgscavenge"
}

// bucketOf classifies one sample's stack, leaf frame first.
func bucketOf(stack []string) string {
	for _, fn := range stack {
		if isGCFrame(fn) {
			return "cpu.gc"
		}
	}
	if len(stack) == 0 {
		return "cpu.other"
	}
	if b, ok := pkgBuckets[funcPackage(stack[0])]; ok {
		return b
	}
	return "cpu.other"
}

// bucketProfile parses a gzipped pprof CPU profile and returns each
// bucket's share of sampled CPU time (every bucket present, shares
// summing to 1 when there are samples) and the sample count.
func bucketProfile(gz []byte) (map[string]float64, int, error) {
	stacks, weights, err := parseProfile(gz)
	if err != nil {
		return nil, 0, err
	}
	shares := map[string]float64{}
	for _, b := range cpuBuckets {
		shares[b] = 0
	}
	total := 0.0
	for i, st := range stacks {
		shares[bucketOf(st)] += float64(weights[i])
		total += float64(weights[i])
	}
	if total > 0 {
		for b := range shares {
			shares[b] /= total
		}
	}
	return shares, len(stacks), nil
}

// parseProfile decodes the parts of a profile.proto message the
// bucketing needs: per sample, the function names of its stack (leaf
// first, inlined frames expanded) and its last value (CPU nanoseconds
// for a CPU profile).
func parseProfile(gz []byte) ([][]string, []int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs []uint64
		vals []int64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location id -> function ids, leaf first
		fnName  = map[uint64]int64{}    // function id -> string index
		strs    []string
	)
	err = eachField(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s sample
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					ids, err := varints(w, v, b)
					s.locs = append(s.locs, ids...)
					return err
				case 2:
					vals, err := varints(w, v, b)
					for _, x := range vals {
						s.vals = append(s.vals, int64(x))
					}
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	name := func(fid uint64) string {
		if i, ok := fnName[fid]; ok && i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return ""
	}
	stacks := make([][]string, len(samples))
	weights := make([]int64, len(samples))
	for i, s := range samples {
		for _, l := range s.locs {
			for _, f := range locFns[l] {
				stacks[i] = append(stacks[i], name(f))
			}
		}
		if len(s.vals) > 0 {
			weights[i] = s.vals[len(s.vals)-1]
		}
	}
	return stacks, weights, nil
}

var errProto = errors.New("profile: malformed protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number and wire type, and its varint value (wire type 0) or bytes
// (wire type 2). Fixed-width fields are skipped.
func eachField(b []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
			continue
		default:
			return errProto
		}
		if err := fn(field, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// varints decodes a repeated varint field in either encoding: one value
// (wire type 0) or a packed run (wire type 2).
func varints(wire int, v uint64, b []byte) ([]uint64, error) {
	if wire == 0 {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}
