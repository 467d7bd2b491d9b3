package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "event", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "send", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "send", Start: 20, End: 40},   // overlaps 2
		{ID: 4, Parent: 1, Name: "flush", Start: 90, End: 120}, // clipped at 100
		{ID: 5, Name: "event", Start: 200, End: 250},           // no children
		{ID: 6, Name: "event", Start: 300},                     // open: skipped
		{ID: 7, Parent: 5, Name: "send", Start: 210},           // open child: ignored
	}
	got := selfTimes(spans, "event")
	if len(got) != 2 || got[0] != 60 || got[1] != 50 {
		t.Errorf("self times = %v, want [60 50]", got)
	}
	if d := durations(spans, "send"); len(d) != 2 || d[0] != 20 || d[1] != 20 {
		t.Errorf("send durations = %v", d)
	}
}

func TestCoveredNestedIntervals(t *testing.T) {
	iv := [][2]int64{{0, 50}, {10, 20}, {60, 70}}
	if got := covered(iv, 0, 100); got != 60 {
		t.Errorf("covered = %d, want 60", got)
	}
}

func TestRecorder(t *testing.T) {
	var off *recorder
	if off.sampled(64) || off.begin("x", "", 0, 0) != 0 || off.snapshot() != nil {
		t.Fatal("nil recorder records")
	}
	off.end(1)

	r := newRecorder(4)
	if !r.sampled(8) || r.sampled(9) {
		t.Error("sampling is not 1 in 4 by seq")
	}
	root := r.begin("event", "home-0", 8, 0)
	child := r.begin("send", "home-0", 8, root)
	r.end(child)
	r.endAt(root, r.snapshot()[1].End+5)
	s := r.snapshot()
	if len(s) != 2 || s[1].Parent != root || s[0].End < s[1].End || s[0].End == 0 {
		t.Fatalf("spans = %+v", s)
	}
	path := filepath.Join(t.TempDir(), "traces", "x.jsonl")
	if err := r.write(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil || strings.Count(string(b), "\n") != 2 || !strings.Contains(string(b), `"name":"send"`) {
		t.Errorf("written spans: %q, %v", b, err)
	}
}
