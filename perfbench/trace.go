package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans of one
// workload unit (a run, a submission) share a parent; times are
// offsets from the tracer's start.
type span struct {
	ID     int               `json:"id"`
	Parent int               `json:"parent,omitempty"`
	Name   string            `json:"name"`
	Start  time.Duration     `json:"start_ns"`
	End    time.Duration     `json:"end_ns"`
	Tags   map[string]string `json:"tags,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory; they are written out when the run
// ends. A nil *tracer records nothing, so untraced code paths call the
// same methods at the cost of a nil check.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer). Tags come
// as key, value pairs.
func (t *tracer) begin(name string, parent int, tags ...string) int {
	if t == nil {
		return 0
	}
	s := span{Name: name, Parent: parent, Start: time.Since(t.t0)}
	if len(tags) > 0 {
		s.Tags = make(map[string]string, len(tags)/2)
		for i := 0; i+1 < len(tags); i += 2 {
			s.Tags[tags[i]] = tags[i+1]
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// named returns the closed spans with the given name, in start order.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// totalMS sums the named spans' durations in milliseconds.
func (t *tracer) totalMS(name string) float64 {
	var d time.Duration
	for _, s := range t.named(name) {
		d += s.dur()
	}
	return ms(d)
}

// write saves the spans as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// profiled runs fn under a CPU profile and memory-statistics snapshot
// and returns what the traced run reports about the host: per-layer
// self-time shares and the Go runtime's allocation and GC deltas.
func profiled(fn func() error) (shares map[string]float64, mem runtimeDelta, err error) {
	var buf bytes.Buffer
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, mem, fmt.Errorf("starting CPU profile: %w", err)
	}
	ferr := fn()
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&after)
	if ferr != nil {
		return nil, mem, ferr
	}
	st, err := parseSelfTime(buf.Bytes())
	if err != nil {
		return nil, mem, err
	}
	mem = runtimeDelta{
		allocMB:   float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
		mallocs:   after.Mallocs - before.Mallocs,
		gcCycles:  after.NumGC - before.NumGC,
		gcPauseMS: float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6,
	}
	return st.layerShares(), mem, nil
}

// runtimeDelta is the Go runtime's work during the traced window.
type runtimeDelta struct {
	allocMB   float64
	mallocs   uint64
	gcCycles  uint32
	gcPauseMS float64
}

// setLayerShares copies profile shares and runtime deltas into the
// per-layer metrics; simCycles scales mallocs to a per-kilocycle rate.
func setLayerShares(m map[string]float64, shares map[string]float64, mem runtimeDelta, simCycles float64) {
	for _, lp := range layerPackages {
		m[lp.layer+".cpu_share"] = shares[lp.layer]
	}
	m["runtime.memclr_share"] = shares["runtime.memclr"]
	m["runtime.alloc_mb"] = mem.allocMB
	if simCycles > 0 {
		m["runtime.mallocs_per_kcycle"] = float64(mem.mallocs) / (simCycles / 1000)
	}
	m["runtime.gc_cycles"] = float64(mem.gcCycles)
	m["runtime.gc_pause_ms"] = mem.gcPauseMS
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
