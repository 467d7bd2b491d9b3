package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// epoch anchors clock readings.
var epoch = time.Now()

// clock is the benchmark's one time source: monotonic ns since epoch.
func clock() int64 { return int64(time.Since(epoch)) }

// span is one timed call the benchmark made into the system, or one
// interval it observed (an event from its due time to its outcome).
// Per-event spans are keyed by tenant and Seq.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Tenant string `json:"tenant,omitempty"`
	Seq    uint64 `json:"seq,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pay one nil check per call site. Span
// times are clock() readings.
type recorder struct {
	every uint64 // per-event spans cover seq%every == 0

	mu    sync.Mutex
	spans []span
}

func newRecorder(every uint64) *recorder {
	return &recorder{every: every}
}

// sampled reports whether per-event spans cover seq.
func (r *recorder) sampled(seq uint64) bool {
	return r != nil && seq%r.every == 0
}

// begin opens a span now and returns its id (0 on a nil recorder).
func (r *recorder) begin(name, tenant string, seq uint64, parent int32) int32 {
	if r == nil {
		return 0
	}
	return r.add(name, tenant, seq, parent, clock(), 0)
}

// end closes span id now.
func (r *recorder) end(id int32) { r.endAt(id, clock()) }

// endAt closes span id at clock reading at.
func (r *recorder) endAt(id int32, at int64) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	r.spans[id-1].End = at
	r.mu.Unlock()
}

// add records a span with known bounds; a zero end leaves it open.
func (r *recorder) add(name, tenant string, seq uint64, parent int32, start, end int64) int32 {
	if r == nil {
		return 0
	}
	s := span{Parent: parent, Name: name, Tenant: tenant, Seq: seq, Start: start, End: end}
	r.mu.Lock()
	s.ID = int32(len(r.spans) + 1)
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	return s.ID
}

// snapshot copies the recorded spans.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// durations returns the closed spans named name, in ns.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && s.End >= s.Start && s.End != 0 {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// selfTimes maps each closed span named name to its self time: its
// duration minus the part of it its children's intervals cover (children
// clipped to the parent, overlaps among children counted once).
func selfTimes(spans []span, name string) []float64 {
	children := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 && s.End != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	var out []float64
	for _, s := range spans {
		if s.Name != name || s.End == 0 || s.End < s.Start {
			continue
		}
		out = append(out, float64(s.End-s.Start-covered(children[s.ID], s.Start, s.End)))
	}
	return out
}

// covered is the length of the union of intervals clipped to [lo, hi).
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := lo
	for _, x := range iv {
		a, b := max(x[0], cur), min(x[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// write stores the spans as JSON lines at path.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
