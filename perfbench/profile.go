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

// layers are the simulator's modules as the per-layer report names them.
// "runtime" is the Go runtime (GC, malloc, maps, scheduling). Time in the
// root camps package, or with no module frame on the stack, is "other"
// and is printed but not reported as a metric.
var layers = []string{
	"sim", "cache", "cpu", "hmc", "vault", "dram", "prefetch", "pfbuffer",
	"workload", "exp", "obs", "runtime",
}

// packageLayers maps camps/internal/<pkg> to its layer. Packages absent
// here (stats, config, fault, energy, ...) are helpers: their time is
// charged to the nearest calling layer.
var packageLayers = map[string]string{
	"sim": "sim", "cache": "cache", "cpu": "cpu", "hmc": "hmc",
	"vault": "vault", "dram": "dram", "prefetch": "prefetch",
	"pfbuffer": "pfbuffer", "workload": "workload", "trace": "workload",
	"exp": "exp", "harness": "exp", "obs": "obs",
}

// pkgOf returns the import path of a fully qualified Go function name
// such as "camps/internal/vault.(*Controller).issue".
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation lists may hold '.' and '/'
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") ||
		strings.HasPrefix(pkg, "internal/runtime/")
}

// packageLayer returns the layer a frame of pkg decides, or "" for a
// frame that defers to its caller. The benchmark's own frames inside a
// simulation are its tracing wrappers, so they count as obs; the root
// package's glue (run wiring, the cube adapter) belongs to no layer.
func packageLayer(pkg string) string {
	switch pkg {
	case "main", "runtime/pprof":
		return "obs"
	case "camps":
		return "other"
	}
	if rest, ok := strings.CutPrefix(pkg, "camps/internal/"); ok {
		name, _, _ := strings.Cut(rest, "/")
		return packageLayers[name]
	}
	return ""
}

// layerOf charges one CPU-profile stack (leaf first) to a layer: flat
// time of a runtime leaf goes to runtime unless tracing code called it;
// any other leaf goes to the innermost frame that belongs to a layer.
func layerOf(stack []string) string {
	decided := ""
	for _, fn := range stack {
		if l := packageLayer(pkgOf(fn)); l != "" {
			decided = l
			break
		}
	}
	switch {
	case len(stack) > 0 && isRuntime(pkgOf(stack[0])) && decided != "obs":
		return "runtime"
	case decided == "":
		return "other"
	}
	return decided
}

// layerNanos decodes a gzipped pprof CPU profile and returns the sampled
// CPU nanoseconds per layer.
func layerNanos(profile []byte) (map[string]int64, error) {
	stacks, err := decodeProfile(profile)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64)
	for _, s := range stacks {
		out[layerOf(s.funcs)] += s.nanos
	}
	return out, nil
}

// profStack is one profile sample: function names, leaf first, and the
// CPU time it stands for.
type profStack struct {
	funcs []string
	nanos int64
}

// decodeProfile reads the subset of profile.proto a CPU profile needs:
// samples (field 2), locations (4), functions (5) and the string table
// (6). Inlined frames expand in place, innermost first, as pprof shows
// them.
func decodeProfile(gz []byte) ([]profStack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct{ locs, values []uint64 }
	var (
		samples []sample
		strs    []string
		locs    = map[uint64][]uint64{} // location id -> function ids
		names   = map[uint64]uint64{}   // function id -> string index
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2:
			var s sample
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendVarints(&s.locs, v, b)
				case 2:
					return appendVarints(&s.values, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return eachField(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
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
			names[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := make([]profStack, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		st := profStack{nanos: int64(s.values[len(s.values)-1])}
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if i := names[f]; i < uint64(len(strs)) {
					st.funcs = append(st.funcs, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
// Fixed-width fields are skipped.
func eachField(buf []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errTruncated
		}
		buf = buf[n:]
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			if v, n = binary.Uvarint(buf); n <= 0 {
				return errTruncated
			}
			buf = buf[n:]
		case 1, 5:
			w := 8
			if key&7 == 5 {
				w = 4
			}
			if len(buf) < w {
				return errTruncated
			}
			buf = buf[w:]
			continue
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errTruncated
			}
			b, buf = buf[n:n+int(l)], buf[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (b != nil) or
// not.
func appendVarints(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
