package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer of the program, recorded by the
// benchmark around the call. Spans of one request share req; parent is the
// id of the span that caused this one (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: procStart} }

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Name: name, Parent: parent, Req: req, Start: now, End: -1})
	return len(t.spans)
}

// end closes a span opened by begin.
func (t *tracer) end(id int) { t.endAs(id, "") }

// endAs closes a span and, when name is not empty, renames it — for a call
// whose outcome decides which population its span belongs to.
func (t *tracer) endAs(id int, name string) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	if name != "" {
		t.spans[id-1].Name = name
	}
}

// add records a span whose bounds were measured elsewhere — the queue wait
// and worker time the scheduler reports with each prediction.
func (t *tracer) add(name string, parent, req int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Name: name, Parent: parent, Req: req,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	return len(t.spans)
}

// finish computes every span's self time: its duration minus the part of
// its interval that its children cover.
func (t *tracer) finish() {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		s.Self = s.End - s.Start - covered(kids[s.ID], s.Start, s.End)
	}
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// countIn returns how many spans opened between a and b.
func (t *tracer) countIn(a, b time.Time) int {
	lo, hi := a.Sub(t.epoch).Nanoseconds(), b.Sub(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, s := range t.spans {
		if s.Start >= lo && s.Start <= hi {
			n++
		}
	}
	return n
}

// durations returns the durations (in ms) of every span with the name.
func (t *tracer) durations(name string) []float64 {
	return t.collect(name, func(s span) int64 { return s.End - s.Start })
}

// selfTimes returns the self times (in ms) of every span with the name.
func (t *tracer) selfTimes(name string) []float64 {
	t.finish()
	return t.collect(name, func(s span) int64 { return s.Self })
}

// perRequest returns, for each request id, the summed duration (in ms) of
// the spans with the name — a layer's time per image when it runs many
// times per image.
func (t *tracer) perRequest(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	sums := map[int]float64{}
	for _, s := range t.spans {
		if s.Name == name && s.End >= s.Start {
			sums[s.Req] += float64(s.End-s.Start) / 1e6
		}
	}
	out := make([]float64, 0, len(sums))
	for _, v := range sums {
		out = append(out, v)
	}
	return out
}

func (t *tracer) collect(name string, f func(span) int64) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= s.Start {
			out = append(out, float64(f(s))/1e6)
		}
	}
	return out
}

// write stores the spans as JSON under dir and returns the file path.
func (t *tracer) write(dir, workload string, seed uint64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	t.mu.Lock()
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans})
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
