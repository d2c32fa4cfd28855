package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Parent is the id of the span that caused it (-1 for none);
// spans of one op share Op.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNs int64  `json:"startNs"`
	EndNs   int64  `json:"endNs"`
}

// recorder buffers spans in memory; write flushes them once, at exit. A
// nil recorder records nothing, which is how the untraced run and the
// traced run share code.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id (-1 on a nil recorder).
func (r *recorder) begin(name string, parent, op int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, StartNs: now})
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id].EndNs = now
	r.mu.Unlock()
}

// call records fn as one span.
func (r *recorder) call(name string, parent, op int, fn func()) {
	id := r.begin(name, parent, op)
	fn()
	r.end(id)
}

// add records a span whose endpoints were observed elsewhere (the service
// client timestamps HTTP events as they arrive).
func (r *recorder) add(name string, parent, op int, start, end time.Time) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		StartNs: start.Sub(r.t0).Nanoseconds(), EndNs: end.Sub(r.t0).Nanoseconds()})
	r.mu.Unlock()
	return id
}

// durations returns every span duration recorded under name.
func (r *recorder) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.EndNs-s.StartNs))
		}
	}
	return out
}

// selfTimes sums, per span name, each span's duration minus the time its
// direct children cover. Replay spans never overlap their siblings, so
// the children's durations add up to the covered interval.
func (r *recorder) selfTimes() map[string]time.Duration {
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNs - s.StartNs
		}
	}
	out := map[string]time.Duration{}
	for _, s := range r.spans {
		out[s.Name] += time.Duration(s.EndNs - s.StartNs - child[s.ID])
	}
	return out
}

// write stores the buffered spans as one JSON document.
func (r *recorder) write(path string) error {
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
