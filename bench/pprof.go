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

// A minimal decoder for the gzip-compressed profile.proto that
// runtime/pprof writes — just enough to attribute CPU samples to the package
// of their leaf frame. Field numbers follow
// github.com/google/pprof/proto/profile.proto:
//
//	Profile:  2 sample, 4 location, 5 function, 6 string_table
//	Sample:   1 location_id (leaf first), 2 value, 3 label
//	Label:    1 key, 2 str                (string-table indices)
//	Location: 1 id, 4 line (innermost inlined function first)
//	Line:     1 function_id
//	Function: 1 id, 2 name                (string-table index)

// profBuckets are the prof.<bucket>_share rows, in report order.
var profBuckets = []string{"sim", "heap", "link", "fabric", "dci", "host", "cc", "pkt", "planes", "map", "runtime", "other"}

// bucketOf maps a leaf function to its row. Hash-map access sits in the
// runtime but is requested per packet by the flow tables, so it gets a row
// of its own instead of hiding inside runtime_share.
func bucketOf(fn string) string {
	pkg := packageOf(fn)
	switch {
	case pkg == "container/heap":
		return "heap"
	case pkg == "internal/runtime/maps" || strings.HasPrefix(fn, "runtime.map") || strings.HasPrefix(fn, "runtime.(*hmap)"):
		return "map"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	rest, ok := strings.CutPrefix(pkg, "mlcc/internal/")
	if !ok {
		return "other"
	}
	switch top, _, _ := strings.Cut(rest, "/"); top {
	case "sim", "link", "fabric", "dci", "host", "pkt":
		return top
	case "cc", "core":
		return "cc"
	case "metrics", "audit", "guard", "fault", "trace":
		return "planes"
	}
	return "other"
}

// packageOf returns the import path of a symbol as the Go linker names it:
// "mlcc/internal/sim.(*Engine).RunUntil" -> "mlcc/internal/sim".
func packageOf(fn string) string {
	if i := strings.IndexAny(fn, "(["); i >= 0 {
		fn = fn[:i] // receivers and type arguments may contain dots and slashes
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// profileShares returns each bucket's share of the CPU samples whose phase
// label is "simulate" or absent, and how many such samples there were.
func profileShares(gz []byte) (shares map[string]float64, n int, err error) {
	shares = map[string]float64{}
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return shares, 0, fmt.Errorf("profile is not gzip: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return shares, 0, fmt.Errorf("inflating profile: %w", err)
	}

	type sample struct {
		leaf       uint64
		value      int64
		key, phase uint64 // string-table indices of the first label
		labelled   bool
	}
	var (
		samples  []sample
		locFunc  = map[uint64]uint64{} // location id -> leaf function id
		funcName = map[uint64]uint64{} // function id -> name string index
		strs     []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			var values []uint64
			first := true
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1: // location_id, packed or not
					ids := []uint64{v}
					if b != nil {
						ids = unpackVarints(b)
					}
					if first && len(ids) > 0 {
						s.leaf, first = ids[0], false
					}
				case 2:
					if b != nil {
						values = append(values, unpackVarints(b)...)
					} else {
						values = append(values, v)
					}
				case 3: // label
					if s.labelled {
						return nil
					}
					s.labelled = true
					return eachField(b, func(num int, v uint64, _ []byte) error {
						switch num {
						case 1:
							s.key = v
						case 2:
							s.phase = v
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			if n := len(values); n > 0 {
				s.value = int64(values[n-1]) // cpu profiles: [samples, nanoseconds]
			}
			samples = append(samples, s)
		case 4: // location
			var id, fn uint64
			haveLine := false
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					if haveLine {
						return nil
					}
					haveLine = true
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFunc[id] = fn
		case 5: // function
			var id, name uint64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return shares, 0, err
	}

	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	var total float64
	for _, s := range samples {
		if s.labelled && str(s.key) == "phase" && str(s.phase) != "simulate" {
			continue
		}
		shares[bucketOf(str(funcName[locFunc[s.leaf]]))] += float64(s.value)
		total += float64(s.value)
		n++
	}
	for b := range shares {
		shares[b] /= total
	}
	return shares, n, nil
}

// eachField walks the fields of one protobuf message, calling f with the
// field number and either its varint value or its length-delimited bytes.
// Fixed-width fields are skipped: the messages read here have none.
func eachField(b []byte, f func(num int, v uint64, bytes []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: truncated field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: truncated varint")
			}
			b = b[n:]
			if err := f(num, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: truncated bytes field")
			}
			if err := f(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: truncated fixed64")
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: truncated fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

func unpackVarints(b []byte) []uint64 {
	var out []uint64
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		out = append(out, v)
		b = b[n:]
	}
	return out
}
