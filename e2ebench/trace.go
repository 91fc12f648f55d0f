package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one recorded call into a layer: its name, the span that caused
// it (0 for none) and its interval in nanoseconds since the tracer began.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay only a nil check.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// active is an open span.
type active struct {
	t      *tracer
	id     int64
	parent int64
	name   string
	start  time.Time
}

// begin opens a span under parent.
func (t *tracer) begin(name string, parent int64) active {
	if t == nil {
		return active{}
	}
	return active{t: t, id: t.ids.Add(1), parent: parent, name: name, start: time.Now()}
}

// end closes the span and records it.
func (a active) end() {
	if a.t == nil {
		return
	}
	now := time.Now()
	s := span{ID: a.id, Parent: a.parent, Name: a.name,
		Start: int64(a.start.Sub(a.t.t0)), End: int64(now.Sub(a.t.t0))}
	a.t.mu.Lock()
	a.t.spans = append(a.t.spans, s)
	a.t.mu.Unlock()
}

// spanKey carries the id of the enclosing span through a context.
type spanKey struct{}

func withSpan(ctx context.Context, id int64) context.Context {
	return context.WithValue(ctx, spanKey{}, id)
}

func spanFrom(ctx context.Context) int64 {
	id, _ := ctx.Value(spanKey{}).(int64)
	return id
}

// finish computes every span's self time — its duration minus the part
// of its interval that its children cover — and returns the spans.
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]int{}
	for i, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		kids := children[s.ID]
		ivs := make([][2]int64, 0, len(kids))
		for _, k := range kids {
			lo, hi := max(t.spans[k].Start, s.Start), min(t.spans[k].End, s.End)
			if lo < hi {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var covered, curLo, curHi int64
		for j, iv := range ivs {
			switch {
			case j == 0:
				curLo, curHi = iv[0], iv[1]
			case iv[0] > curHi:
				covered += curHi - curLo
				curLo, curHi = iv[0], iv[1]
			case iv[1] > curHi:
				curHi = iv[1]
			}
		}
		if len(ivs) > 0 {
			covered += curHi - curLo
		}
		s.Self = s.End - s.Start - covered
	}
	return t.spans
}

// byName returns the durations (or self times) in microseconds of every
// span with the given name.
func byName(spans []span, name string, self bool) []float64 {
	var xs []float64
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		d := s.End - s.Start
		if self {
			d = s.Self
		}
		xs = append(xs, float64(d)/1e3)
	}
	return xs
}

// sumMs is the total duration in milliseconds of the named spans.
func sumMs(spans []span, name string) float64 {
	var total float64
	for _, us := range byName(spans, name, false) {
		total += us / 1e3
	}
	return total
}

// handlerLayers sets the per-route serve.handler_us_p50 metrics from the
// handler spans named prefix+route; routes without spans stay unset.
func (r *run) handlerLayers(spans []span, prefix string) {
	for metric, route := range map[string]string{
		"predict_batch_bin":  "predict_batch_bin",
		"predict_batch_json": "predict_batch",
		"predict":            "predict",
		"learn":              "learn_bin",
	} {
		if d := byName(spans, prefix+route, false); len(d) > 0 {
			r.layer["serve.handler_us_p50."+metric] = median(d)
		}
	}
}

// writeSpans writes the spans as JSON lines to dir/<workload>-seed<n>.jsonl.
func writeSpans(dir, workload string, seed uint64, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
