package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one operation
// share op; parent is the id of the span that caused this one (0 for an
// operation's root span).
type span struct {
	ID     int64     `json:"id"`
	Parent int64     `json:"parent"`
	Op     int64     `json:"op"`
	Name   string    `json:"name"`
	Start  time.Time `json:"-"`
	End    time.Time `json:"-"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory for one traced run; they are written out
// once the run ends, so recording costs an append under a mutex and no
// I/O inside the measured window. A nil *tracer records nothing.
type tracer struct {
	mu    sync.Mutex
	spans []span
	ids   int64
}

// add records a span and returns its id.
func (t *tracer) add(parent, op int64, name string, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	t.ids++
	id := t.ids
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: end})
	t.mu.Unlock()
	return id
}

// selfTime is a span's duration minus the part of its interval covered
// by its children (overlapping children count once; parts of a child
// outside the parent are ignored).
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, c := range children {
		a, b := c.Start, c.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	covered := time.Duration(0)
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			covered += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.b.Sub(cur.a)
	}
	return parent.dur() - covered
}

// write stores the spans as JSON lines (times in ns from the earliest
// span) and returns the file path.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	var base time.Time
	for i, s := range t.spans {
		if i == 0 || s.Start.Before(base) {
			base = s.Start
		}
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		rec := struct {
			span
			StartNs int64 `json:"start_ns"`
			EndNs   int64 `json:"end_ns"`
		}{s, s.Start.Sub(base).Nanoseconds(), s.End.Sub(base).Nanoseconds()}
		if err := enc.Encode(rec); err != nil {
			return "", fmt.Errorf("writing %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		return "", fmt.Errorf("writing %s: %w", path, err)
	}
	return path, f.Close()
}
