package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one traced interval: a rep of a workload (root, Parent -1) or a
// batch of calls into one layer's public functions (child of its section).
type span struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// spanLog keeps spans in memory; they are written once, when the run ends.
// A nil log records nothing, so untraced code paths pay nothing.
type spanLog struct {
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) begin(name string, parent int) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{ID: len(l.spans), Name: name, Parent: parent, StartNS: time.Since(l.t0).Nanoseconds()})
	return len(l.spans) - 1
}

func (l *spanLog) end(id int) {
	if l == nil || id < 0 {
		return
	}
	l.spans[id].EndNS = time.Since(l.t0).Nanoseconds()
}

func (l *spanLog) write(path string) error {
	b, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// cpuByPackage decodes a pprof CPU profile and returns CPU nanoseconds by
// the package of each sample's leaf function, plus the total. The decoder
// reads only the five protobuf fields it needs (sample, location, function,
// string table and their ids), so no module dependency is added.
func cpuByPackage(profile []byte) (map[string]int64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		leaf  uint64
		value int64
	}
	var samples []sample
	locFunc := map[uint64]uint64{}  // location id -> innermost function id
	funcName := map[uint64]uint64{} // function id -> string index
	var strs []string
	err = protoFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			first := true
			if err := protoFields(b, func(f int, v uint64, pb []byte) error {
				switch f {
				case 1: // location_id, leaf first
					ids := unpack(v, pb)
					if first && len(ids) > 0 {
						s.leaf, first = ids[0], false
					}
				case 2: // values: [samples, cpu ns]; keep the last
					if vals := unpack(v, pb); len(vals) > 0 {
						s.value = int64(vals[len(vals)-1])
					}
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // Location
			var id, fn uint64
			haveFn := false
			if err := protoFields(b, func(f int, v uint64, pb []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line; the first is the innermost inlined frame
					if !haveFn {
						haveFn = true
						return protoFields(pb, func(lf int, lv uint64, _ []byte) error {
							if lf == 1 {
								fn = lv
							}
							return nil
						})
					}
				}
				return nil
			}); err != nil {
				return err
			}
			locFunc[id] = fn
		case 5: // Function
			var id, name uint64
			if err := protoFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	byPkg := map[string]int64{}
	var total int64
	for _, s := range samples {
		name := ""
		if idx := funcName[locFunc[s.leaf]]; int(idx) < len(strs) {
			name = strs[idx]
		}
		byPkg[packageOf(name)] += s.value
		total += s.value
	}
	return byPkg, total, nil
}

// packageOf maps a symbol such as mindgap/internal/sim.(*Engine).Step or
// mindgap/internal/fabric.(*Stage[go.shape.int]).Submit to its package path.
func packageOf(symbol string) string {
	if i := strings.IndexByte(symbol, '['); i >= 0 {
		symbol = symbol[:i]
	}
	slash := strings.LastIndexByte(symbol, '/')
	dot := strings.IndexByte(symbol[slash+1:], '.')
	if dot < 0 {
		return symbol
	}
	return symbol[:slash+1+dot]
}

// protoFields walks one protobuf message, calling visit for every field:
// v holds varint (and fixed) values, b the bytes of length-delimited ones.
func protoFields(msg []byte, visit func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return fmt.Errorf("bad protobuf key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return fmt.Errorf("bad protobuf varint")
			}
			msg = msg[n:]
			if err := visit(field, v, nil); err != nil {
				return err
			}
		case 1, 5:
			size := 8
			if wire == 5 {
				size = 4
			}
			if len(msg) < size {
				return fmt.Errorf("short protobuf fixed field")
			}
			msg = msg[size:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return fmt.Errorf("bad protobuf length")
			}
			if err := visit(field, 0, msg[n:n+int(l)]); err != nil {
				return err
			}
			msg = msg[n+int(l):]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
	}
	return nil
}

// unpack returns a repeated varint field's values: packed when b is set,
// otherwise the single value v.
func unpack(v uint64, b []byte) []uint64 {
	if b == nil {
		return []uint64{v}
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		out = append(out, x)
		b = b[n:]
	}
	return out
}

// topPackages renders the heaviest packages of a profile, for the log.
func topPackages(byPkg map[string]int64, total int64, n int) []string {
	pkgs := make([]string, 0, len(byPkg))
	for p := range byPkg {
		pkgs = append(pkgs, p)
	}
	sort.Slice(pkgs, func(i, j int) bool {
		if byPkg[pkgs[i]] != byPkg[pkgs[j]] {
			return byPkg[pkgs[i]] > byPkg[pkgs[j]]
		}
		return pkgs[i] < pkgs[j]
	})
	if len(pkgs) > n {
		pkgs = pkgs[:n]
	}
	out := make([]string, len(pkgs))
	for i, p := range pkgs {
		out[i] = fmt.Sprintf("%5.1f%%  %s", 100*float64(byPkg[p])/float64(total), p)
	}
	return out
}
