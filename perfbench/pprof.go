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

// cpuSample is one profile sample: its call stack as function names,
// innermost first, and the CPU time it stands for.
type cpuSample struct {
	stack []string
	ns    int64
}

// labelledSamples reads a gzipped CPU profile as runtime/pprof writes it
// and returns the samples labelled key=val. Only the profile.proto
// fields this needs are decoded.
func labelledSamples(gz []byte, key, val string) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	type sample struct {
		locs   []uint64
		ns     int64
		labels [][2]int64 // string indexes of key and value
	}
	var (
		samples []sample
		strs    []string
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]int64{}    // function id -> string index
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			var vals []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					vals = appendPacked(vals, v, b)
				case 3: // Label
					var l [2]int64
					err := fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 || num == 2 {
							l[num-1] = int64(v)
						}
						return nil
					})
					s.labels = append(s.labels, l)
					return err
				}
				return nil
			})
			if err != nil || len(vals) < 2 {
				return err
			}
			s.ns = int64(vals[1]) // values: [samples, cpu ns]
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line: inlined frames, innermost first
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	var out []cpuSample
	for _, s := range samples {
		keep := false
		for _, l := range s.labels {
			keep = keep || str(l[0]) == key && str(l[1]) == val
		}
		if !keep {
			continue
		}
		cs := cpuSample{ns: s.ns}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				cs.stack = append(cs.stack, str(fnName[fn]))
			}
		}
		if len(cs.stack) > 0 {
			out = append(out, cs)
		}
	}
	return out, nil
}

// pkgOf returns the import path of a profile function name such as
// "repro/internal/htm.(*coopEngine).grant" or "runtime.coroswitch".
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // drop generic type arguments
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// fields walks one protobuf message, calling f with each field's number
// and either its varint value or its length-delimited bytes.
func fields(b []byte, f func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		tag, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field tag")
		}
		b = b[n:]
		num, wire := int(tag>>3), tag&7
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
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
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			sub, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := f(num, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field that arrived either as a
// single value or packed into bytes.
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
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
