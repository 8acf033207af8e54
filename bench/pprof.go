package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A CPU profile is a gzipped profile.proto message. The bench needs only
// each sample's CPU time and the function names on its stack, so this is a
// minimal stdlib-only protobuf reader for that subset: the module takes no
// dependencies.

// Field numbers from github.com/google/pprof/proto/profile.proto.
const (
	fProfileSampleType  = 1
	fProfileSample      = 2
	fProfileLocation    = 4
	fProfileFunction    = 5
	fProfileStringTable = 6

	fValueTypeType = 1

	fSampleLocationID = 1
	fSampleValue      = 2

	fLocationID   = 1
	fLocationLine = 4

	fLineFunctionID = 1

	fFunctionID   = 1
	fFunctionName = 2
)

// profSample is one stack (leaf first, inlined frames expanded) and its
// CPU time in nanoseconds.
type profSample struct {
	stack []string
	cpuNs int64
}

// parseCPUProfile decodes a runtime/pprof CPU profile.
func parseCPUProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	type sample struct{ locs, vals []uint64 }
	var (
		sampleTypes []uint64 // string index of each value's type
		samples     []sample
		locLines    = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames   = map[uint64]uint64{}   // function id → string index
		strs        []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case fProfileSampleType:
			return eachField(b, func(num, _ int, v uint64, _ []byte) error {
				if num == fValueTypeType {
					sampleTypes = append(sampleTypes, v)
				}
				return nil
			})
		case fProfileSample:
			var s sample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case fSampleLocationID:
					return appendUints(&s.locs, wire, v, b)
				case fSampleValue:
					return appendUints(&s.vals, wire, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case fProfileLocation:
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, _ int, v uint64, b []byte) error {
				switch num {
				case fLocationID:
					id = v
				case fLocationLine:
					return eachField(b, func(num, _ int, v uint64, _ []byte) error {
						if num == fLineFunctionID {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case fProfileFunction:
			var id, name uint64
			err := eachField(b, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case fProfileStringTable:
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
	cpu := -1
	for i, t := range sampleTypes {
		if str(t) == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("pprof: profile has no cpu sample type")
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if cpu >= len(s.vals) {
			return nil, errors.New("pprof: sample lacks a cpu value")
		}
		ps := profSample{cpuNs: int64(s.vals[cpu])}
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				ps.stack = append(ps.stack, str(funcNames[fn]))
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// appendUints appends a repeated integer field, packed or not.
func appendUints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errors.New("pprof: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// eachField walks one message's fields. Varints arrive in v, length-
// delimited fields in b; fixed-width fields are skipped (the subset read
// here has none).
func eachField(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n <= 0 {
			return errors.New("pprof: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = uvarint(msg)
			if n <= 0 {
				return errors.New("pprof: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("pprof: short fixed64")
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("pprof: bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("pprof: short fixed32")
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// hostModules are the simulator modules host time is charged to, plus
// "other" (any other netmem/internal module), "bench" (this program: the
// tracer and the rig's own loop) and "runtime" (no netmem frame at all:
// GC workers, the scheduler).
var hostModules = []string{"des", "atm", "cluster", "rmem", "reliable", "dfs", "tokens",
	"shard", "workload", "faults", "recovery", "hybrid", "fstore", "stats", "other", "bench", "runtime"}

// moduleOf charges a stack to the innermost netmem frame on it, so
// memeqbody under dfs.(*Server).chainPass counts as dfs.
func moduleOf(stack []string) string {
	const internal = "netmem/internal/"
	for _, fn := range stack {
		if strings.HasPrefix(fn, "main.") {
			return "bench"
		}
		if !strings.HasPrefix(fn, internal) {
			continue
		}
		mod := fn[len(internal):]
		if i := strings.IndexAny(mod, "./"); i >= 0 {
			mod = mod[:i]
		}
		for _, m := range hostModules {
			if m == mod {
				return m
			}
		}
		return "other"
	}
	return "runtime"
}

// hostShares returns each host module's share of the profile's CPU time.
func hostShares(samples []profSample) map[string]float64 {
	shares := make(map[string]float64, len(hostModules))
	var total int64
	for _, s := range samples {
		total += s.cpuNs
	}
	for _, m := range hostModules {
		shares[m] = 0
	}
	if total == 0 {
		return shares
	}
	for _, s := range samples {
		shares[moduleOf(s.stack)] += float64(s.cpuNs) / float64(total)
	}
	return shares
}
