package main

import (
	"testing"
	"time"
)

func at(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }

func sp(a, b int) span { return span{Start: at(a), End: at(b)} }

func TestSelfTime(t *testing.T) {
	parent := sp(0, 100)
	for _, c := range []struct {
		name     string
		children []span
		want     int
	}{
		{"no children", nil, 100},
		{"one child", []span{sp(10, 40)}, 70},
		{"disjoint", []span{sp(10, 20), sp(50, 70)}, 70},
		{"overlapping count once", []span{sp(10, 40), sp(30, 60)}, 50},
		{"nested", []span{sp(10, 60), sp(20, 30)}, 50},
		{"clipped to parent", []span{sp(-20, 10), sp(90, 130)}, 80},
		{"outside parent", []span{sp(120, 130)}, 100},
		{"unsorted", []span{sp(50, 70), sp(10, 20)}, 70},
	} {
		if got := selfTime(parent, c.children); got != time.Duration(c.want)*time.Millisecond {
			t.Errorf("%s: self time %v, want %dms", c.name, got, c.want)
		}
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	if id := tr.add(0, 1, "x", at(0), at(1)); id != 0 {
		t.Errorf("nil tracer returned id %d", id)
	}
	tr = &tracer{}
	a := tr.add(0, 1, "op", at(0), at(10))
	b := tr.add(a, 1, "child", at(1), at(2))
	if a == b || len(tr.spans) != 2 || tr.spans[1].Parent != a {
		t.Errorf("spans %+v", tr.spans)
	}
}
