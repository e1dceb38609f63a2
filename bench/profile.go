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

// shares are the fractions of the CPU samples taken inside timed calls that
// belong to each layer. A sample counts for a layer when its stack holds one
// of the layer's functions, so nested calls into a layer count once.
type shares struct {
	power, topology, network, match, expand, stats float64
}

// Layer entry points, as profile function names.
const (
	pkgPower    = "ibpower/internal/power."
	pkgTopology = "ibpower/internal/topology."
	pkgNetwork  = "ibpower/internal/network."
	pkgStats    = "ibpower/internal/stats."
	fnResolve   = "ibpower/internal/replay.(*engine).resolve"
	fnExpand    = "ibpower/internal/replay.expandCached"
)

// matchFuncs pair point-to-point halves; resolve, which they call once a
// pair is complete, is the network's share, not theirs.
var matchFuncs = []string{
	"ibpower/internal/replay.(*engine).postSend",
	"ibpower/internal/replay.(*engine).postRecv",
	"ibpower/internal/replay.(*engine).pair",
}

// iterationLabel marks, as a pprof label key, the goroutines running a timed
// call; samples without it (the collections and digests between iterations,
// idle GC workers) are left out of the shares.
const iterationLabel = "bench.iteration"

// layerShares attributes a CPU profile (runtime/pprof's gzipped protobuf) to
// the layers.
func layerShares(prof []byte) (shares, error) {
	var sh shares
	samples, err := parseProfile(prof)
	if err != nil {
		return sh, fmt.Errorf("cpu profile: %w", err)
	}
	var total float64
	for _, s := range samples {
		if !s.labeled {
			continue
		}
		w := float64(s.count)
		total += w
		in := func(prefix string) bool {
			for _, f := range s.funcs {
				if strings.HasPrefix(f, prefix) {
					return true
				}
			}
			return false
		}
		matching := false
		for _, f := range matchFuncs {
			matching = matching || in(f)
		}
		// Telemetry runs inside power and network callbacks; it is the stats
		// layer's share, not theirs.
		telemetry := in(pkgStats)
		if in(pkgPower) && !telemetry {
			sh.power += w
		}
		if in(pkgTopology) {
			sh.topology += w
		} else if in(pkgNetwork) && !telemetry {
			sh.network += w
		}
		if matching && !in(fnResolve) {
			sh.match += w
		}
		if in(fnExpand) {
			sh.expand += w
		}
		if telemetry {
			sh.stats += w
		}
	}
	if total > 0 {
		sh.power /= total
		sh.topology /= total
		sh.network /= total
		sh.match /= total
		sh.expand /= total
		sh.stats /= total
	}
	return sh, nil
}

// sample is one profile sample: its count, the functions on its stack
// (inlined ones included), and whether it carries iterationLabel.
type sample struct {
	count   int64
	funcs   []string
	labeled bool
}

// parseProfile decodes the parts of a profile.proto message that stack
// attribution needs: samples (field 2) with their label keys, locations (4),
// functions (5) and the string table (6).
func parseProfile(prof []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(prof))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs      []uint64
		count     int64
		labelKeys []uint64 // string indexes
	}
	var (
		rawSamples []rawSample
		locFuncs   = map[uint64][]uint64{} // location id -> function ids
		funcNames  = map[uint64]int64{}    // function id -> string index
		strs       []string
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2:
			var s rawSample
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					if vals := appendVarints(nil, v, b); len(vals) > 0 && s.count == 0 {
						s.count = int64(vals[0])
					}
				case 3:
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							s.labelKeys = append(s.labelKeys, v)
						}
						return nil
					})
				}
				return nil
			})
			rawSamples = append(rawSamples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
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
	out := make([]sample, 0, len(rawSamples))
	for _, rs := range rawSamples {
		s := sample{count: rs.count}
		for _, k := range rs.labelKeys {
			s.labeled = s.labeled || k < uint64(len(strs)) && strs[k] == iterationLabel
		}
		for _, l := range rs.locs {
			for _, f := range locFuncs[l] {
				if i := funcNames[f]; i >= 0 && i < int64(len(strs)) {
					s.funcs = append(s.funcs, strs[i])
				}
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// fields walks a protobuf message, calling fn with each field's number and
// either its varint value or its length-delimited bytes.
func fields(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num := int(key >> 3)
		var v uint64
		var data []byte
		switch key & 7 {
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
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errors.New("bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unknown wire type %d", key&7)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values: v when it was
// encoded unpacked, otherwise the varints packed in b.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
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
