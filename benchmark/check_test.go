package main

import (
	"strings"
	"testing"
	"time"

	causaliot "github.com/causaliot/causaliot"
)

func TestCheckAlarms(t *testing.T) {
	var b books
	b.checkAlarms("home-0", []uint64{3, 7, 9}, []uint64{7, 3})
	if b.Alarms != 3 || b.AlarmsMissing != 1 || len(b.Problems) != 0 {
		t.Errorf("missing alarm: %+v", b)
	}
	b = books{}
	b.checkAlarms("home-0", []uint64{3, 7}, []uint64{3, 7, 7, 8})
	if len(b.Problems) != 2 || !strings.Contains(b.Problems[0], "twice") || !strings.Contains(b.Problems[1], "not in the reference") {
		t.Errorf("duplicate and stray alarms: %v", b.Problems)
	}
}

func TestCheckEvents(t *testing.T) {
	var b books
	b.checkEvents(100, causaliot.TenantStats{Processed: 97, Rejected: 3}, 3)
	if b.Events != 100 || b.EventsFailed != 3 || len(b.Problems) != 0 {
		t.Errorf("refused events: %+v", b)
	}
	b.checkEvents(10, causaliot.TenantStats{Processed: 9}, 0)
	if len(b.Problems) != 1 {
		t.Errorf("undecided event not flagged: %v", b.Problems)
	}
	b.Migrations, b.MigrationErrs, b.Refreshes, b.RefreshErrs = 4, 1, 2, 0
	b.checkAlarms("h", []uint64{1}, nil)
	b.total()
	if b.Attempted != 110+1+4+2 || b.Failed != 3+1+1 {
		t.Errorf("totals %d attempted, %d failed", b.Attempted, b.Failed)
	}
}

func TestReferenceUpTo(t *testing.T) {
	r := &reference{alarms: []uint64{2, 5, 9}, errs: []uint64{4}}
	if a, e := r.upTo(5); len(a) != 2 || e != 1 {
		t.Errorf("upTo(5) = %v, %d", a, e)
	}
	if a, e := r.upTo(1); len(a) != 0 || e != 0 {
		t.Errorf("upTo(1) = %v, %d", a, e)
	}
}

// TestReferenceMatchesHub holds the oracle itself to a served home: the
// same stream through a Hub raises exactly the reference's alarms.
func TestReferenceMatchesHub(t *testing.T) {
	h, err := newHome()
	if err != nil {
		t.Fatal(err)
	}
	train, err := h.simulate(11, 2)
	if err != nil {
		t.Fatal(err)
	}
	base, err := h.simulate(12, 2)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := h.train(train, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := newStream(base, len(base)/2)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000 // wraps the base log at least once
	ref, err := replay(sys, st, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.alarms) == 0 {
		t.Fatal("reference raised no alarms")
	}
	tn := &tenant{name: "home-0", sys: sys, st: st}
	hub := causaliot.NewHub(causaliot.HubConfig{})
	if err := hub.Register(tn.name, sys, causaliot.TenantOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := hub.SetAlarmRoute(tn.name, func(ta causaliot.TenantAlarm) { tn.sink(ta.Seq) }); err != nil {
		t.Fatal(err)
	}
	for ; tn.sent < n; tn.sent++ {
		if err := hub.Submit(tn.name, st.at(tn.sent)); err != nil {
			t.Fatal(err)
		}
	}
	if err := hub.Close(); err != nil {
		t.Fatal(err)
	}
	stats := hub.Stats()
	var b books
	if err := b.checkReference([]*tenant{tn}, statsByTenant(stats)); err != nil {
		t.Fatal(err)
	}
	if len(b.Problems) != 0 || b.AlarmsMissing != 0 || b.Alarms != len(ref.alarms) {
		t.Errorf("hub vs reference: %+v", b)
	}
}

func TestStreamWrapsForwardAndDrifts(t *testing.T) {
	t0 := time.Date(2023, 1, 2, 7, 0, 0, 0, time.UTC)
	base := []causaliot.Event{
		{Time: t0, Device: "a", Value: 1},
		{Time: t0.Add(time.Second), Device: "b", Value: 1},
		{Time: t0.Add(2 * time.Second), Device: "a", Value: 0},
	}
	st, err := newStream(base, 2)
	if err != nil {
		t.Fatal(err)
	}
	a, b := st.at(0), st.at(1)
	if a.Seq != 1 || b.Seq != 2 || !b.Time.After(a.Time) || b.Device != "a" || b.Value != 1 {
		t.Errorf("wrap: %+v then %+v", a, b)
	}
	// Inversion applies from a third of the way through each pass.
	st.invert = map[string]bool{"a": true}
	if got := st.at(1); got.Device != "a" || got.Value != 1 {
		t.Errorf("first third drifted: %+v", got)
	}
	if got := st.at(3); got.Device != "a" || got.Value != 1 {
		t.Errorf("inverted a: %+v", got)
	}
	// Scrambling renames event i by renaming i%2, everywhere.
	st.invert = nil
	st.scramble = []map[string]string{{"a": "b"}, {"b": "c"}}
	if a, b := st.at(0), st.at(1); a.Device != "b" || b.Device != "a" {
		t.Errorf("scrambled: %+v then %+v", a, b)
	}
}
