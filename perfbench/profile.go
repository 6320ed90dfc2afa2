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

// Module self time comes from a runtime/pprof CPU profile. Each sample
// is charged to one bucket, found by walking its stack from the
// innermost frame outward:
//
//   - runtime scheduler frames (channel handoff, park, futex) go to
//     runtime_sched and GC frames (mark, sweep, assist) to runtime_gc;
//   - encoding/json goes to encoding_json and net/http or net to
//     net_http;
//   - a frame of a repository package goes to the package's name
//     (repro/internal/fluid → fluid);
//   - anything else (allocation, memmove, syscalls) is skipped so its
//     cost lands on the caller that asked for it. A stack with no
//     classifiable frame is charged to other.
//
// Every sample lands in exactly one bucket, so the buckets sum to the
// profile's total, which parseProfile counts independently as sample
// count times sampling period.

var schedFuncs = []string{
	"runtime.chansend", "runtime.chanrecv", "runtime.selectgo", "runtime.block",
	"runtime.park_m", "runtime.schedule", "runtime.findRunnable", "runtime.findrunnable",
	"runtime.futex", "runtime.mcall", "runtime.gopark", "runtime.goready", "runtime.ready",
	"runtime.runqget", "runtime.runqput", "runtime.runqsteal", "runtime.runqgrab",
	"runtime.netpoll", "runtime.usleep", "runtime.osyield", "runtime.notesleep",
	"runtime.notewakeup", "runtime.stopm", "runtime.startm", "runtime.wakep",
	"runtime.execute", "runtime.gogo", "runtime.goexit0", "runtime.gosched",
	"runtime.semacquire", "runtime.semrelease", "runtime.resetspinning",
	"runtime.checkTimers", "runtime.stealWork", "runtime.handoffp", "runtime.entersyscall",
	"runtime.exitsyscall", "runtime.newproc", "runtime.casgstatus", "runtime.goschedImpl",
}

var gcFuncs = []string{
	"runtime.gc", "runtime.scanobject", "runtime.scanblock", "runtime.scanstack",
	"runtime.scanframe", "runtime.greyobject", "runtime.markroot", "runtime.markBits",
	"runtime.sweepone", "runtime.bgsweep", "runtime.bgscavenge", "runtime.(*gcWork)",
	"runtime.(*gcControllerState)", "runtime.(*mspan).sweep", "runtime.(*sweepLocked)",
	"runtime.wbBufFlush", "runtime.findObject", "runtime.(*mheap).reclaim",
	"runtime.(*scavengerState)", "runtime.(*pageAlloc).scavenge", "runtime.shade",
	"runtime.typePointers", "runtime.(*mspan).typePointersOf", "runtime.(*gcBits)",
	"runtime.spanOf", "runtime.heapBitsSetType", "runtime.bulkBarrierPreWrite",
}

// classify returns the bucket of one frame's function name, or "" when
// the frame should be skipped in favour of its caller.
func classify(fn string) string {
	for _, p := range gcFuncs {
		if strings.HasPrefix(fn, p) {
			return "runtime_gc"
		}
	}
	for _, p := range schedFuncs {
		if strings.HasPrefix(fn, p) {
			return "runtime_sched"
		}
	}
	switch {
	case strings.HasPrefix(fn, "encoding/json."):
		return "encoding_json"
	case strings.HasPrefix(fn, "net/http.") || strings.HasPrefix(fn, "net."):
		return "net_http"
	case strings.HasPrefix(fn, "repro/internal/"):
		pkg := strings.TrimPrefix(fn, "repro/internal/")
		if i := strings.IndexAny(pkg, "./"); i > 0 {
			pkg = pkg[:i]
		}
		return pkg
	}
	return ""
}

// attributeProfile decodes a gzipped pprof CPU profile and returns CPU
// seconds per bucket and the profile's total CPU seconds.
func attributeProfile(data []byte) (map[string]float64, float64, error) {
	p, err := parseProfile(data)
	if err != nil {
		return nil, 0, err
	}
	out := map[string]float64{}
	for _, s := range p.samples {
		bucket := "other"
	stack:
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				if b := classify(p.funcNames[fn]); b != "" {
					bucket = b
					break stack
				}
			}
		}
		out[bucket] += float64(s.nanos) / 1e9
	}
	return out, float64(p.totalNanos) / 1e9, nil
}

// profile is the subset of profile.proto the ledger needs.
type profile struct {
	samples   []profSample
	locFuncs  map[uint64][]uint64 // location → function IDs, innermost first
	funcNames map[uint64]string
	// totalNanos is the sampled count of every sample times the period,
	// counted apart from the cpu values the buckets add up.
	totalNanos int64
}

type profSample struct {
	locs  []uint64 // innermost first
	nanos int64
}

// parseProfile decodes the protocol buffer runtime/pprof writes
// (github.com/google/pprof/proto/profile.proto) with a minimal
// hand-written decoder, since the standard library exposes no parser.
func parseProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]string{}}
	var (
		strs      []string
		typeNames []uint64              // sample_type[i].type as a string index
		funcName  = map[uint64]uint64{} // function ID → string index
		samples   []profSample
		values    [][]uint64
		period    uint64
	)
	err = forFields(raw, func(field int, _ int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			var typ uint64
			err := forFields(b, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 {
					typ = v
				}
				return nil
			})
			typeNames = append(typeNames, typ)
			return err
		case 2: // sample
			var s profSample
			var vals []uint64
			err := forFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendUints(s.locs, w, v, b)
				case 2:
					vals = appendUints(vals, w, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			values = append(values, vals)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := forFields(b, func(f, _ int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return forFields(b, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := forFields(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		case 12: // period
			period = v
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i >= uint64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	cpu, count := -1, -1
	for i, t := range typeNames {
		switch str(t) {
		case "cpu":
			cpu = i
		case "samples":
			count = i
		}
	}
	if cpu < 0 || count < 0 {
		return nil, errors.New("profile: no cpu or samples sample type")
	}
	for id, name := range funcName {
		p.funcNames[id] = str(name)
	}
	for i, s := range samples {
		if count < len(values[i]) {
			p.totalNanos += int64(values[i][count] * period)
		}
		if cpu < len(values[i]) {
			s.nanos = int64(values[i][cpu])
			p.samples = append(p.samples, s)
		}
	}
	return p, nil
}

// appendUints decodes a repeated integer field in either encoding:
// packed (wire type 2) or one varint per field (wire type 0).
func appendUints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}

// forFields walks one protobuf message, calling fn with each field's
// number, wire type, and varint value or length-delimited bytes.
func forFields(b []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}
