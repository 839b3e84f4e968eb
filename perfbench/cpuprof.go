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

// packageShares reads a CPU profile in pprof's format (gzipped
// protobuf, as runtime/pprof writes it) and returns each package's
// share of the flat CPU time: the time in samples whose innermost frame
// is one of the package's functions. Only the few message fields this
// needs are decoded (profile.proto: Profile.sample = 2, .location = 4,
// .function = 5, .string_table = 6).
func packageShares(profile []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	type sample struct {
		leaf  uint64
		value int64
	}
	var (
		samples []sample
		locFunc = make(map[uint64]uint64) // location id → innermost function id
		funName = make(map[uint64]int64)  // function id → string index
		strs    []string
	)
	err = eachField(raw, func(field int, v uint64, msg []byte) error {
		switch field {
		case 2: // Sample{location_id = 1 (packed), value = 2 (packed)}
			var s sample
			var values []int64
			err := eachField(msg, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					if b == nil { // unpacked
						if s.leaf == 0 {
							s.leaf = v
						}
						return nil
					}
					ids, err := varints(b)
					if err == nil && len(ids) > 0 && s.leaf == 0 {
						s.leaf = ids[0]
					}
					return err
				case 2:
					if b == nil {
						values = append(values, int64(v))
						return nil
					}
					vs, err := varints(b)
					for _, x := range vs {
						values = append(values, int64(x))
					}
					return err
				}
				return nil
			})
			if err != nil {
				return err
			}
			// CPU profiles carry [samples/count, cpu/nanoseconds].
			if len(values) > 0 {
				s.value = values[len(values)-1]
			}
			samples = append(samples, s)
		case 4: // Location{id = 1, line = 4 (Line{function_id = 1})}
			var id, fn uint64
			err := eachField(msg, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					if fn != 0 { // the first line is the innermost inlined call
						return nil
					}
					return eachField(b, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							fn = lv
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
		case 5: // Function{id = 1, name = 2}
			var id uint64
			var name int64
			err := eachField(msg, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funName[id] = name
		case 6:
			strs = append(strs, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	shares := make(map[string]float64)
	var total float64
	for _, s := range samples {
		name := ""
		if idx, ok := funName[locFunc[s.leaf]]; ok && idx >= 0 && int(idx) < len(strs) {
			name = strs[idx]
		}
		shares[packageOf(name)] += float64(s.value)
		total += float64(s.value)
	}
	if total == 0 {
		return nil, errors.New("cpu profile holds no samples")
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares, nil
}

// packageOf returns the import path of a symbolized Go function name,
// e.g. "uvmasim/internal/uvm" for "uvmasim/internal/uvm.(*Manager).touch".
func packageOf(fn string) string {
	if fn == "" {
		return "(unknown)"
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// layerShare sums the shares of the packages under uvmasim/internal/<layer>.
func layerShare(shares map[string]float64, layer string) float64 {
	prefix := "uvmasim/internal/" + layer
	sum := 0.0
	for pkg, v := range shares {
		if pkg == prefix || strings.HasPrefix(pkg, prefix+"/") {
			sum += v
		}
	}
	return sum
}

// eachField walks the top-level fields of one protobuf message. For
// varint fields fn gets the value and a nil slice; for length-delimited
// fields it gets the payload. Fixed-width fields are skipped.
func eachField(b []byte, fn func(field int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			payload := b[n : n+int(l)]
			b = b[n+int(l):]
			if payload == nil {
				payload = []byte{}
			}
			if err := fn(field, 0, payload); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// varints decodes a packed repeated varint field.
func varints(b []byte) ([]uint64, error) {
	var out []uint64
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("bad packed varint")
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}
