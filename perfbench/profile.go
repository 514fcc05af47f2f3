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

// This file buckets runtime/pprof profiles by layer. It decodes the
// profile.proto wire format directly (the handful of fields needed), so
// the benchmark needs neither a module dependency nor a subprocess.

// layerOf maps a package import path to its layer name: the repo's
// modules by their last element, the Go runtime, or "other".
func layerOf(pkg string) string {
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(pkg, "repro/internal/"):
		name := pkg[strings.LastIndexByte(pkg, '/')+1:]
		for _, l := range repoLayers {
			if l == name {
				return l
			}
		}
	}
	return "other"
}

// repoLayers are the repo's modules that get their own bucket.
var repoLayers = []string{"sim", "kernel", "core", "codoms", "mem", "ipc", "oltp",
	"netpipe", "load", "stats", "faults", "experiments"}

// pkgOf extracts the import path from a Go symbol name such as
// "repro/internal/sim.(*Engine).Run" or "runtime.gopark".
func pkgOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// gcAllocPrefixes name the runtime functions (after "runtime.") that
// allocate or run the collector; the rest of the runtime is scheduling,
// channels, timers and locks.
var gcAllocPrefixes = []string{
	"malloc", "newobject", "newarray", "makeslice", "growslice", "makemap", "rawstring",
	"rawbyteslice", "rawruneslice", "concatstring", "slicebytetostring", "convT",
	"gc", "bgsweep", "bgscavenge", "sweepone", "scanobject", "scanblock", "scanstack",
	"scanframe", "greyobject", "markroot", "markBits", "heapBits", "heapSetType",
	"findObject", "wbBuf", "bulkBarrier", "typePointers", "nextFree", "deductAssistCredit",
	"memclrNoHeapPointers", "(*mheap)", "(*mspan)", "(*mcache)", "(*mcentral)", "(*gcWork)",
	"(*gcControllerState)", "(*gcBits)", "(*sweepLocked)", "(*sweepLocker)", "(*pageAlloc)",
	"(*pageCache)", "(*scavengerState)", "(*pallocBits)", "(*pallocData)", "(*fixalloc)",
	"(*spanSet)", "(*activeSweep)", "(*gcCPULimiterState)", "(*wbBuf)", "(*markBits)",
	"(*mSpanStateBox)", "(*heapBits)", "(*writeHeapBits)", "(*stackScanState)",
}

// cpuBucket names the self-time bucket of a leaf function.
func cpuBucket(fn string) string {
	l := layerOf(pkgOf(fn))
	if l != "runtime" {
		return l
	}
	if name, ok := strings.CutPrefix(fn, "runtime."); ok {
		for _, p := range gcAllocPrefixes {
			if strings.HasPrefix(name, p) {
				return "runtime.gc_alloc"
			}
		}
	}
	return "runtime.sched"
}

// profile is the decoded subset of a pprof profile: each sample's
// stack as function names, leaf first, and its values.
type profile struct {
	sampleTypes []string
	samples     []sample
}

type sample struct {
	stack  []string
	values []int64
}

// valueIndex returns the index of the named sample type.
func (p *profile) valueIndex(typ string) (int, error) {
	for i, t := range p.sampleTypes {
		if t == typ {
			return i, nil
		}
	}
	return 0, fmt.Errorf("profile has no %q samples (types %v)", typ, p.sampleTypes)
}

// selfByBucket sums the typ value of every sample into the bucket of
// its leaf frame.
func (p *profile) selfByBucket(typ string) (map[string]int64, error) {
	vi, err := p.valueIndex(typ)
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, s := range p.samples {
		if len(s.stack) > 0 {
			out[cpuBucket(s.stack[0])] += s.values[vi]
		}
	}
	return out, nil
}

// allocsByLayer sums the typ value of every sample into the layer of the
// innermost frame that belongs to the repo, so allocations made for the
// repo by the standard library (fmt, maps, closures' runtime helpers)
// count against the repo package that asked for them.
func (p *profile) allocsByLayer(typ string) (map[string]int64, error) {
	vi, err := p.valueIndex(typ)
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, s := range p.samples {
		layer := "other"
		for _, fn := range s.stack {
			if strings.HasPrefix(fn, "repro/") {
				layer = layerOf(pkgOf(fn))
				break
			}
		}
		out[layer] += s.values[vi]
	}
	return out, nil
}

// parseProfile decodes a gzipped profile.proto as runtime/pprof writes
// it.
func parseProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		strs      []string
		typeIdx   []int64 // sample_type[i].type as string-table index
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]int64{}    // function id -> string-table index
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var t int64
			err := eachField(b, func(num, _ int, v uint64, _ []byte) error {
				if num == 1 {
					t = int64(v)
				}
				return nil
			})
			typeIdx = append(typeIdx, t)
			return err
		case 2: // sample
			var s rawSample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, b)
				case 2:
					for _, x := range appendVarints(nil, wire, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var funcs []uint64
			err := eachField(b, func(num, _ int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num, _ int, v uint64, _ []byte) error {
						if num == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = funcs
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	p := &profile{}
	for _, t := range typeIdx {
		p.sampleTypes = append(p.sampleTypes, str(t))
	}
	for _, rs := range samples {
		if len(rs.values) != len(p.sampleTypes) {
			return nil, errors.New("profile: sample value count does not match sample types")
		}
		s := sample{values: rs.values}
		for _, loc := range rs.locs {
			for _, f := range locFuncs[loc] {
				s.stack = append(s.stack, str(funcNames[f]))
			}
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// eachField walks the fields of one protobuf message, passing varint
// values in v and length-delimited payloads in b. Fixed-width fields
// are skipped; profile.proto uses none that matter here.
func eachField(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("truncated fixed64")
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("truncated length-delimited field")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("truncated fixed32")
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (wire type 2)
// or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
