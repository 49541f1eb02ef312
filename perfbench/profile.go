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

// This file reads the CPU profile that runtime/pprof writes (a gzipped
// profile.proto message) just far enough to attribute each sample's
// self time to the Go package of its innermost frame. The standard
// library keeps its own profile parser internal, and the module takes
// no outside dependencies, so the few message fields needed are decoded
// by hand.

// selfTime maps a fully qualified function name to the CPU time of the
// samples whose innermost frame it is, plus their total.
type selfTime struct {
	byFunc map[string]int64
	total  int64
}

// protoField is one decoded protobuf field: varint value or raw bytes.
type protoField struct {
	num  int
	v    uint64
	data []byte
}

// protoFields splits one protobuf message into its fields.
func protoFields(b []byte) ([]protoField, error) {
	var out []protoField
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("profile: bad field key")
		}
		b = b[n:]
		f := protoField{num: int(key >> 3)}
		switch key & 7 {
		case 0: // varint
			f.v, n = binary.Uvarint(b)
			if n <= 0 {
				return nil, errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1: // fixed 64
			if len(b) < 8 {
				return nil, errors.New("profile: short fixed64")
			}
			f.v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2: // length-delimited
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errors.New("profile: bad length")
			}
			f.data, b = b[n:n+int(l)], b[n+int(l):]
		case 5: // fixed 32
			if len(b) < 4 {
				return nil, errors.New("profile: short fixed32")
			}
			f.v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return nil, fmt.Errorf("profile: unsupported wire type %d", key&7)
		}
		out = append(out, f)
	}
	return out, nil
}

// varints reads a repeated integer field, packed or not.
func varints(f protoField) ([]uint64, error) {
	if f.data == nil {
		return []uint64{f.v}, nil
	}
	var out []uint64
	for b := f.data; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("profile: bad packed varint")
		}
		out, b = append(out, v), b[n:]
	}
	return out, nil
}

// parseSelfTime decodes a gzipped CPU profile and sums each sample's
// last value (CPU nanoseconds) onto its innermost function, inlined
// frames included.
func parseSelfTime(gz []byte) (selfTime, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return selfTime{}, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return selfTime{}, fmt.Errorf("profile: %w", err)
	}
	top, err := protoFields(raw)
	if err != nil {
		return selfTime{}, err
	}
	var (
		strs    []string
		samples [][]protoField
		leafFn  = map[uint64]uint64{} // location id → innermost function id
		fnName  = map[uint64]uint64{} // function id → string index
	)
	for _, f := range top {
		switch f.num {
		case 2: // sample
			fs, err := protoFields(f.data)
			if err != nil {
				return selfTime{}, err
			}
			samples = append(samples, fs)
		case 4: // location
			fs, err := protoFields(f.data)
			if err != nil {
				return selfTime{}, err
			}
			var id, fn uint64
			haveLine := false
			for _, lf := range fs {
				switch {
				case lf.num == 1:
					id = lf.v
				case lf.num == 4 && !haveLine: // first line is the innermost inlined frame
					lfs, err := protoFields(lf.data)
					if err != nil {
						return selfTime{}, err
					}
					for _, x := range lfs {
						if x.num == 1 {
							fn = x.v
						}
					}
					haveLine = true
				}
			}
			leafFn[id] = fn
		case 5: // function
			fs, err := protoFields(f.data)
			if err != nil {
				return selfTime{}, err
			}
			var id, name uint64
			for _, x := range fs {
				switch x.num {
				case 1:
					id = x.v
				case 2:
					name = x.v
				}
			}
			fnName[id] = name
		case 6: // string table
			strs = append(strs, string(f.data))
		}
	}
	st := selfTime{byFunc: map[string]int64{}}
	for _, fs := range samples {
		var locs, vals []uint64
		for _, f := range fs {
			vs, err := varints(f)
			if err != nil {
				return selfTime{}, err
			}
			switch f.num {
			case 1:
				locs = append(locs, vs...)
			case 2:
				vals = append(vals, vs...)
			}
		}
		if len(locs) == 0 || len(vals) == 0 {
			continue
		}
		v := int64(vals[len(vals)-1])
		name := "?"
		if si, ok := fnName[leafFn[locs[0]]]; ok && si < uint64(len(strs)) {
			name = strs[si]
		}
		st.byFunc[name] += v
		st.total += v
	}
	return st, nil
}

// funcPackage returns the import path of a qualified Go function name:
// "safetynet/internal/cache.(*Array).Lookup" → "safetynet/internal/cache".
func funcPackage(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i] // generic instantiation brackets may hold dots and slashes
	}
	slash := strings.LastIndexByte(name, '/')
	if dot := strings.IndexByte(name[slash+1:], '.'); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

// layerPackages maps each profiled layer to the package directories
// whose self time it owns. A package belongs to at most one layer.
var layerPackages = []struct {
	layer string
	pkgs  []string // exact import paths, or prefixes ending in "/"
}{
	{"sim", []string{"safetynet/internal/sim"}},
	{"cache", []string{"safetynet/internal/cache"}},
	{"protocol", []string{"safetynet/internal/protocol"}},
	{"network", []string{"safetynet/internal/network"}},
	{"proc", []string{"safetynet/internal/proc"}},
	{"workload", []string{"safetynet/internal/workload"}},
	{"core", []string{"safetynet/internal/core"}},
	{"snoop", []string{"safetynet/internal/snoop"}},
	{"machine", []string{"safetynet/internal/machine"}},
	{"serve", []string{"safetynet/internal/serve"}},
	{"nethttp", []string{"net", "net/", "mime", "mime/"}},
	{"runtime", []string{"runtime", "runtime/", "internal/runtime/", "sync", "sync/", "internal/sync"}},
}

func inLayer(pkg string, pkgs []string) bool {
	for _, p := range pkgs {
		if pkg == p || (strings.HasSuffix(p, "/") && strings.HasPrefix(pkg, p)) {
			return true
		}
	}
	return false
}

// layerShares groups self time by layer. Packages outside every layer
// (the benchmark, encoding/json, msg, ...) are left out, so the shares
// sum to at most 1. The map also carries "runtime.memclr": the share of
// runtime.memclrNoHeapPointers alone.
func (st selfTime) layerShares() map[string]float64 {
	out := map[string]float64{}
	for _, lp := range layerPackages {
		out[lp.layer] = 0
	}
	out["runtime.memclr"] = 0
	if st.total == 0 {
		return out
	}
	for fn, v := range st.byFunc {
		pkg := funcPackage(fn)
		for _, lp := range layerPackages {
			if inLayer(pkg, lp.pkgs) {
				out[lp.layer] += float64(v) / float64(st.total)
				break
			}
		}
		if fn == "runtime.memclrNoHeapPointers" {
			out["runtime.memclr"] += float64(v) / float64(st.total)
		}
	}
	return out
}
