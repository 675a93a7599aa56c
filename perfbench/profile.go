package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// layerProfile is a CPU profile folded by simulator layer: sampled host
// nanoseconds charged to the package of each sample's innermost frame,
// and the number of profiling ticks they came from.
type layerProfile struct {
	NS      map[string]float64 `json:"ns"`
	Samples uint64             `json:"samples"`
}

// simLayers are the dbisim/internal packages reported as their own
// layer; every other package of the module folds into "other".
var simLayers = map[string]string{
	"event": "event", "cpu": "cpu", "cache": "cache", "llc": "llc",
	"dbi": "dbi", "dram": "dram", "trace": "trace",
	"replacement": "replacement", "misspred": "misspred", "randstate": "rand",
}

// layerOf maps a profiled function name to its layer.
func layerOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation arguments may contain '/'
	}
	slash := strings.LastIndexByte(fn, '/')
	pkg := fn
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch {
	case strings.HasPrefix(pkg, "dbisim/internal/"):
		if l, ok := simLayers[strings.TrimPrefix(pkg, "dbisim/internal/")]; ok {
			return l
		}
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "math/rand":
		return "rand"
	}
	return "other"
}

var errProto = errors.New("profile: malformed protobuf")

// pbFields walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func pbFields(b []byte, fn func(num int, v uint64, data []byte)) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			fn(int(key>>3), v, nil)
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errProto
			}
			fn(int(key>>3), 0, b[n:n+int(l)])
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
	}
	return nil
}

// pbInts appends a repeated integer field's values, packed or not.
func pbInts(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

// foldProfile decodes a gzipped pprof CPU profile (the format
// runtime/pprof writes) and sums sampled CPU nanoseconds by layer.
func foldProfile(gz []byte) (layerProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return layerProfile{}, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return layerProfile{}, err
	}
	type sample struct{ locs, vals []uint64 }
	var (
		strs    []string
		samples []sample
		funcs   = map[uint64]uint64{} // function id → name string index
		leaf    = map[uint64]uint64{} // location id → innermost function id
	)
	err = pbFields(raw, func(num int, _ uint64, data []byte) {
		switch num {
		case 2: // Sample
			var s sample
			_ = pbFields(data, func(n int, v uint64, d []byte) {
				switch n {
				case 1:
					s.locs = pbInts(s.locs, v, d)
				case 2:
					s.vals = pbInts(s.vals, v, d)
				}
			})
			samples = append(samples, s)
		case 4: // Location: lines are innermost first
			var id, fn uint64
			first := true
			_ = pbFields(data, func(n int, v uint64, d []byte) {
				switch {
				case n == 1:
					id = v
				case n == 4 && first:
					first = false
					_ = pbFields(d, func(ln int, lv uint64, _ []byte) {
						if ln == 1 {
							fn = lv
						}
					})
				}
			})
			leaf[id] = fn
		case 5: // Function
			var id, name uint64
			_ = pbFields(data, func(n int, v uint64, _ []byte) {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
			})
			funcs[id] = name
		case 6:
			strs = append(strs, string(data))
		}
	})
	if err != nil {
		return layerProfile{}, err
	}
	lp := layerProfile{NS: map[string]float64{}}
	for _, s := range samples {
		if len(s.locs) == 0 || len(s.vals) < 2 {
			continue
		}
		lp.Samples += s.vals[0]
		name := ""
		if i, ok := funcs[leaf[s.locs[0]]]; ok && i < uint64(len(strs)) {
			name = strs[i]
		}
		// CPU profiles carry [samples, cpu nanoseconds] per distinct
		// stack.
		lp.NS[layerOf(name)] += float64(s.vals[1])
	}
	return lp, nil
}
