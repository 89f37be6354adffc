package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// cpuLayers are the packages under internal/ that get their own
// <layer>.cpu_s. Samples whose stack holds none of them go to "other".
var cpuLayers = []string{"rpcserve", "wsrpc", "collect", "stats", "archive", "blobstore", "wire", "core", "coord", "serve"}

// layerOf returns the layer a function belongs to, or "" when it is not
// in one. Helper packages outside cpuLayers (chain, eos, tezos, xrp,
// retry, cli) return "", so their time counts toward the layer that
// called them.
func layerOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, "repro/internal/")
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	for _, l := range cpuLayers {
		if rest == l {
			return l
		}
	}
	return ""
}

// attributeCPU reads a gzipped pprof CPU profile and returns the CPU
// seconds per layer: each sample goes to the innermost frame (inlined
// frames included) that belongs to a layer, or to "other". The values
// sum to the profile's total.
func attributeCPU(profile []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("reading CPU profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("reading CPU profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	// Go's CPU profiles carry [samples/count, cpu/nanoseconds].
	valueIdx := -1
	for i, st := range p.sampleTypes {
		if p.str(st) == "cpu" {
			valueIdx = i
		}
	}
	if valueIdx < 0 {
		return nil, fmt.Errorf("CPU profile has no cpu sample type")
	}
	funcLayer := make(map[uint64]string, len(p.funcs))
	for id, name := range p.funcs {
		funcLayer[id] = layerOf(p.str(name))
	}
	out := make(map[string]float64)
	for _, s := range p.samples {
		if valueIdx >= len(s.values) {
			continue
		}
		layer := "other"
	stack:
		for _, loc := range s.locs {
			for _, fn := range p.locs[loc] {
				if l := funcLayer[fn]; l != "" {
					layer = l
					break stack
				}
			}
		}
		out[layer] += float64(s.values[valueIdx]) / 1e9
	}
	return out, nil
}

// profileData is the part of profile.proto the attribution needs.
type profileData struct {
	sampleTypes []int64 // string-table index of each value's type
	samples     []sample
	locs        map[uint64][]uint64 // location → function IDs, innermost first
	funcs       map[uint64]int64    // function → string-table index of its name
	strings     []string
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
}

func (p *profileData) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// parseProfile decodes the protobuf fields of a pprof Profile message
// that attributeCPU reads; the rest are skipped.
func parseProfile(b []byte) (*profileData, error) {
	p := &profileData{locs: make(map[uint64][]uint64), funcs: make(map[uint64]int64)}
	err := pbFields(b, func(field int, v uint64, data []byte) error {
		switch field {
		case 1: // sample_type
			return pbFields(data, func(f int, v uint64, _ []byte) error {
				if f == 1 {
					p.sampleTypes = append(p.sampleTypes, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s sample
			err := pbFields(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					return pbUints(v, d, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return pbUints(v, d, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return pbFields(d, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := pbFields(data, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("decoding CPU profile: %w", err)
	}
	return p, nil
}

// pbFields walks one protobuf message, calling fn with each field number
// and either its varint value or its length-delimited bytes. Fixed-width
// fields are skipped.
func pbFields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("bad varint in field %d", field)
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("short fixed64 in field %d", field)
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return fmt.Errorf("bad length in field %d", field)
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("short fixed32 in field %d", field)
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d in field %d", wire, field)
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

// pbUints reads a repeated integer field that may be packed (data set)
// or a single varint (v).
func pbUints(v uint64, data []byte, add func(uint64)) error {
	if data == nil {
		add(v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return fmt.Errorf("bad packed varint")
		}
		add(x)
		data = data[n:]
	}
	return nil
}
