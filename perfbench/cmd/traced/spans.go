package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"sonet/perfbench/bench"
)

// span is one recorded interval. Times are ns since the recorder's epoch.
type span struct {
	name       string
	parent     bench.SpanID
	msg        uint64
	start, end int64
}

// recorder is the traced run's bench.Tracer: spans stay in memory and
// are written out when the run ends.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span // index = SpanID - 1
	sends map[uint64]bench.SpanID
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), sends: make(map[uint64]bench.SpanID)}
}

// spanSample keeps the spans of one message in spanSample, chosen by
// sequence number, so a 30-second run's spans fit in memory. Spans that
// belong to no message are all kept; a tick's self time therefore
// includes the sends that were not sampled.
const spanSample = 8

// Begin implements bench.Tracer.
func (r *recorder) Begin(name string, parent bench.SpanID, msg uint64) bench.SpanID {
	if msg != 0 && uint32(msg)%spanSample != 0 {
		return 0
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, parent: parent, msg: msg, start: now, end: -1})
	id := bench.SpanID(len(r.spans))
	if msg != 0 && (name == "Send" || name == "Flow.Send") {
		r.sends[msg] = id
	}
	return id
}

// End implements bench.Tracer.
func (r *recorder) End(id bench.SpanID) {
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	if id > 0 && int(id) <= len(r.spans) {
		r.spans[id-1].end = now
	}
	r.mu.Unlock()
}

// SendOf implements bench.Tracer.
func (r *recorder) SendOf(msg uint64) bench.SpanID {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sends[msg]
}

// timed records a span around fn, a timed call into one layer.
func (r *recorder) timed(name string, fn func()) {
	id := r.Begin(name, 0, 0)
	fn()
	r.End(id)
}

// selfTimes returns each span name's count, total and self time: a
// span's duration minus the part of it its children cover.
func (r *recorder) selfTimes() map[string][3]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.parent > 0 && s.end >= 0 {
			p := r.spans[s.parent-1]
			lo, hi := max(s.start, p.start), s.end
			if p.end >= 0 {
				hi = min(hi, p.end)
			}
			if hi > lo {
				child[s.parent-1] += hi - lo
			}
		}
	}
	out := make(map[string][3]int64)
	for i, s := range r.spans {
		if s.end < 0 {
			continue
		}
		d := s.end - s.start
		self := d - child[i]
		if self < 0 {
			self = 0
		}
		v := out[s.name]
		out[s.name] = [3]int64{v[0] + 1, v[1] + d, v[2] + self}
	}
	return out
}

// write stores the spans as JSON lines and a self-time summary beside
// them, and returns the span file's path.
func (r *recorder) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("span dir: %w", err)
	}
	path := filepath.Join(dir, "spans-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("span file: %w", err)
	}
	w := bufio.NewWriter(f)
	r.mu.Lock()
	for i, s := range r.spans {
		fmt.Fprintf(w, `{"id":%d,"name":%q,"parent":%d,"msg":%d,"start_ns":%d,"end_ns":%d}`+"\n",
			i+1, s.name, s.parent, s.msg, s.start, s.end)
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		_ = f.Close() // the write already failed
		return "", fmt.Errorf("span file: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("span file: %w", err)
	}
	self := r.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb []byte
	sb = append(sb, "span               count      total_ms       self_ms\n"...)
	for _, n := range names {
		v := self[n]
		sb = append(sb, fmt.Sprintf("%-14s %9d %13.3f %13.3f\n", n, v[0], float64(v[1])/1e6, float64(v[2])/1e6)...)
	}
	if err := os.WriteFile(filepath.Join(dir, "spans-"+workload+".self.txt"), sb, 0o644); err != nil {
		return "", fmt.Errorf("span summary: %w", err)
	}
	return path, nil
}
