package main

import (
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// A CPU profile is decoded here rather than through `go tool pprof`
// because attributing time to layers needs whole stacks: a sample whose
// leaf is in the standard library (strconv under the JSONL encoder,
// syscall under a store write) belongs to the repository layer that
// called it, which flat per-function totals cannot tell.

// stack is one profile sample: its functions from leaf to root, inlined
// frames expanded, and the CPU time it carries.
type stack struct {
	funcs []string
	nanos int64
}

// readProfile decodes a gzipped runtime/pprof CPU profile.
func readProfile(path string) ([]stack, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", path, err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", path, err)
	}
	st, err := decodeProfile(data)
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", path, err)
	}
	return st, nil
}

// decodeProfile reads the fields of profile.proto that attribution needs:
// Profile{sample_type=1, sample=2, location=4, function=5, string_table=6},
// Sample{location_id=1, value=2}, Location{id=1, line=4}, Line{function_id=1},
// Function{id=1, name=2}, ValueType{type=1}.
func decodeProfile(data []byte) ([]stack, error) {
	type sample struct{ locs, vals []uint64 }
	var (
		strs      []string
		typeIdx   []uint64 // sample_type[i].type, as string-table indices
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcNames = map[uint64]uint64{}   // function id -> name index
	)
	err := eachField(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 1:
			return eachField(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					typeIdx = append(typeIdx, v)
				}
				return nil
			})
		case 2:
			var s sample
			err := eachField(b, func(n int, v uint64, pb []byte) error {
				switch n {
				case 1:
					return appendPacked(&s.locs, v, pb)
				case 2:
					return appendPacked(&s.vals, v, pb)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(b, func(n int, v uint64, lb []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return eachField(lb, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5:
			var id, name uint64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6:
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
	for i, t := range typeIdx {
		if str(t) == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("no cpu sample type")
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		if cpu >= len(s.vals) {
			continue
		}
		st := stack{nanos: int64(s.vals[cpu])}
		for _, l := range s.locs {
			for _, f := range locFuncs[l] {
				st.funcs = append(st.funcs, str(funcNames[f]))
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
// Fixed-width fields are skipped: profile.proto uses none of them here.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field that arrives either packed
// (data set) or as a single value.
func appendPacked(dst *[]uint64, v uint64, data []byte) error {
	if data == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := uvarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// Layers the CPU profile is split into. Each is a *.cpu_share metric
// except calendar and loop, which split the core package.
const (
	layerCalendar = "calendar"
	layerLoop     = "core"
	layerRuntime  = "runtime"
	layerOther    = "other"
)

// layerByPkg maps repository packages to the layer whose cost they are.
// Packages absent from it (ring, addrmap, memreq, stats, and the whole
// standard library apart from the runtime) are shared helpers: their time
// is charged to the nearest calling layer.
var layerByPkg = map[string]string{
	"core":     layerLoop,
	"smcore":   "smcore",
	"kernel":   "smcore",
	"mrq":      "mrq",
	"noc":      "noc",
	"dram":     "dram",
	"prefetch": "prefetch",
	"throttle": "prefetch",
	"cache":    "cache",
	"obs":      "obs",
	"store":    "store",
	"harness":  "harness",
	"workload": "workload",
	"swpref":   "workload",
}

// layerOf names the layer a sample's CPU time belongs to: the first frame,
// leaf upward, that belongs to a layer. The runtime is a layer of its own
// (allocation, GC, scheduling) when the sample's leaf is in it; further up
// a stack, runtime frames are only goroutine entry points.
func layerOf(funcs []string) string {
	if len(funcs) > 0 {
		pkg := funcPackage(funcs[0])
		if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
			return layerRuntime
		}
	}
	for _, fn := range funcs {
		rest, ok := strings.CutPrefix(funcPackage(fn), "mtprefetch/internal/")
		if !ok {
			continue
		}
		if strings.HasSuffix(fn, ".NextEvent") || strings.HasSuffix(fn, ".NextTick") ||
			strings.HasSuffix(fn, ".nextEventCycle") {
			return layerCalendar
		}
		if l, ok := layerByPkg[rest]; ok {
			return l
		}
	}
	return layerOther
}

// funcPackage extracts the import path from a symbol name such as
// "mtprefetch/internal/ring.(*Buffer[...]).PushBack" or "runtime.mallocgc".
func funcPackage(fn string) string {
	if i := strings.IndexAny(fn, "(["); i >= 0 {
		fn = fn[:i]
	}
	dir := ""
	if i := strings.LastIndexByte(fn, '/'); i >= 0 {
		dir, fn = fn[:i+1], fn[i+1:]
	}
	if i := strings.IndexByte(fn, '.'); i >= 0 {
		fn = fn[:i]
	}
	return dir + fn
}

// cpuShares splits a profile's CPU time across layers; the shares sum to 1.
func cpuShares(stacks []stack) map[string]float64 {
	byLayer := map[string]int64{}
	var total int64
	for _, s := range stacks {
		byLayer[layerOf(s.funcs)] += s.nanos
		total += s.nanos
	}
	out := map[string]float64{}
	for l, ns := range byLayer {
		if total > 0 {
			out[l] = float64(ns) / float64(total)
		}
	}
	return out
}
