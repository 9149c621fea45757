package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside it.
type span struct {
	Run    string `json:"run"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until write. A nil tracer records
// nothing, so untraced phases pass nil.
type tracer struct {
	run string
	t0  time.Time

	mu    sync.Mutex
	next  uint64
	spans []span
}

func newTracer(run string) *tracer { return &tracer{run: run, t0: time.Now()} }

// id reserves a span id, so children can name a parent before the
// parent's span is recorded.
func (t *tracer) id() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// record stores a finished span; id 0 takes a fresh id.
func (t *tracer) record(id, parent uint64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	if id == 0 {
		id = t.id()
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{
		Run: t.run, ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
	t.mu.Unlock()
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// shareLayers are the layers whose CPU and allocation shares are reported
// as metrics; the profile table written beside the spans lists every
// group.
var shareLayers = []string{
	"sim", "agent", "rnic", "simnet", "trace", "analyzer", "alert",
	"wire", "json", "proto", "pipeline", "tsdb", "api",
}

// allocSampleBytes is the allocation-profile sampling period of the
// traced phase.
const allocSampleBytes = 32 << 10

// profiler captures the traced phase's CPU and allocation profiles.
type profiler struct{ cpu bytes.Buffer }

func startProfiles() (*profiler, error) {
	p := &profiler{}
	runtime.MemProfileRate = allocSampleBytes
	if err := pprof.StartCPUProfile(&p.cpu); err != nil {
		return nil, err
	}
	return p, nil
}

// stop ends both profiles, writes the attribution table and the raw CPU
// profile to outDir, and returns the per-layer shares.
func (p *profiler) stop(outDir, runID string, m map[string]float64) error {
	pprof.StopCPUProfile()
	runtime.GC() // the allocation profile publishes at the end of a cycle
	runtime.GC()
	// Written while the sampling rate is still set: the writer scales
	// samples by the current rate.
	var allocs bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&allocs, 0); err != nil {
		return err
	}
	alloc := allocByLayer()
	runtime.MemProfileRate = 0

	cpu, err := cpuByLayer(p.cpu.Bytes())
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for _, l := range shareLayers {
		m[l+".cpu_share"] = share(cpu, l)
		m[l+".alloc_share"] = share(alloc, l)
	}
	m["gc.cpu_share"] = share(cpu, "gc")
	m["cpu.attributed_share"] = 1 - share(cpu, "other")

	if err := os.WriteFile(filepath.Join(outDir, "cpu-"+runID+".pprof"), p.cpu.Bytes(), 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, "allocs-"+runID+".pprof"), allocs.Bytes(), 0o644); err != nil {
		return err
	}
	var tb strings.Builder
	fmt.Fprintf(&tb, "%-12s %9s %9s\n", "layer", "cpu", "alloc")
	for _, l := range sortedGroups(cpu, alloc) {
		fmt.Fprintf(&tb, "%-12s %8.2f%% %8.2f%%\n", l, 100*share(cpu, l), 100*share(alloc, l))
	}
	return os.WriteFile(filepath.Join(outDir, "layers-"+runID+".txt"), []byte(tb.String()), 0o644)
}

func share(w map[string]float64, layer string) float64 {
	total := 0.0
	for _, v := range w {
		total += v
	}
	if total == 0 {
		return 0
	}
	return w[layer] / total
}

func sortedGroups(ws ...map[string]float64) []string {
	seen := map[string]bool{}
	var out []string
	for _, w := range ws {
		for g := range w {
			if !seen[g] {
				seen[g] = true
				out = append(out, g)
			}
		}
	}
	sort.Strings(out)
	return out
}

// isGC reports whether a frame belongs to the collector: background
// marking and sweeping, and the mark assists and sweep credit that
// allocating goroutines pay.
func isGC(fn string) bool {
	for _, p := range []string{
		"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
		"runtime.scanobject", "runtime.sweepone", "runtime.deductSweepCredit",
		"runtime.(*gcWork)", "runtime.(*sweepLocked)", "runtime.(*mheap).reclaim",
	} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// groupOf maps a fully qualified function name to its layer: a package
// of the program by its last path element, encoding/json as "json", the
// benchmark's own code as "bench", or "" for the rest of the standard
// library, which is charged to the nearest caller that has a layer.
func groupOf(fn string) string {
	// The package path ends at the first dot after its last slash; type
	// parameters and receivers, which may hold slashes, come later.
	head := fn
	if i := strings.IndexAny(head, "[("); i >= 0 {
		head = head[:i]
	}
	pkg := head
	if j := strings.Index(head[strings.LastIndex(head, "/")+1:], "."); j >= 0 {
		pkg = head[:strings.LastIndex(head, "/")+1+j]
	}
	switch {
	case strings.HasPrefix(pkg, "rpingmesh/internal/"):
		return strings.TrimPrefix(pkg, "rpingmesh/internal/")
	case pkg == "encoding/json":
		return "json"
	case pkg == "main":
		return "bench"
	}
	return ""
}

// classify attributes one stack, leaf first. Stacks with no layer are
// "runtime" when they run only runtime code (scheduler, network poller)
// and "other" otherwise.
func classify(stack []string) string {
	for _, fn := range stack {
		if isGC(fn) {
			return "gc"
		}
	}
	for _, fn := range stack {
		if g := groupOf(fn); g != "" {
			return g
		}
	}
	for _, fn := range stack {
		if !strings.HasPrefix(fn, "runtime.") && !strings.HasPrefix(fn, "internal/") &&
			!strings.HasPrefix(fn, "syscall.") {
			return "other"
		}
	}
	return "runtime"
}

func allocByLayer() map[string]float64 {
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, ok := runtime.MemProfile(recs, true)
	if !ok {
		return nil
	}
	out := map[string]float64{}
	for _, r := range recs[:n] {
		var stack []string
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			stack = append(stack, f.Function)
			if !more {
				break
			}
		}
		out[classify(stack)] += unsampled(r.AllocBytes, r.AllocObjects)
	}
	return out
}

// unsampled estimates the bytes a profile record stands for. An
// allocation of s bytes is sampled with probability 1 - exp(-s/rate), so
// small objects are under-represented in the raw counts; this is the
// scaling runtime/pprof applies when it writes a profile.
func unsampled(bytes, objects int64) float64 {
	if bytes == 0 || objects == 0 {
		return 0
	}
	avg := float64(bytes) / float64(objects)
	return float64(bytes) / (1 - math.Exp(-avg/allocSampleBytes))
}

// cpuByLayer decodes a gzipped pprof CPU profile (profile.proto) and sums
// its samples by layer. Only the fields needed for that are read: sample
// locations and counts, locations' lines, function names and the string
// table.
func cpuByLayer(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]int64{}    // function id -> string index
		strs    []string
	)
	err = pbFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			var vals []int64
			if err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = pbPacked(s.locs, v, b)
				case 2:
					for _, x := range pbPacked(nil, v, b) {
						vals = append(vals, int64(x))
					}
				}
				return nil
			}); err != nil {
				return err
			}
			if len(vals) > 0 {
				s.count = vals[0]
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			if err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFns[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			if err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			fnName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, s := range samples {
		var stack []string
		for _, l := range s.locs {
			for _, fid := range locFns[l] {
				if i := fnName[fid]; i >= 0 && int(i) < len(strs) {
					stack = append(stack, strs[i])
				}
			}
		}
		out[classify(stack)] += float64(s.count)
	}
	return out, nil
}

var errPB = errors.New("malformed protobuf")

func pbVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// pbFields walks one message's fields: varints arrive in v, length-
// delimited fields in b.
func pbFields(b []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return errPB
		}
		b = b[n:]
		field, wt := int(key>>3), key&7
		switch wt {
		case 0:
			v, n := pbVarint(b)
			if n == 0 {
				return errPB
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errPB
			}
			b = b[8:]
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errPB
			}
			if err := fn(field, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errPB
			}
			b = b[4:]
		default:
			return errPB
		}
	}
	return nil
}

// pbPacked appends a repeated varint field that arrives either packed (b)
// or as a single value (v).
func pbPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := pbVarint(b)
		if n == 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
