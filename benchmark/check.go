package main

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	causaliot "github.com/causaliot/causaliot"
)

// books is a run's accounting: operations attempted and failed, in the
// contract's sense, plus any violated identity that makes the run wrong.
type books struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
	// Per-kind detail behind Attempted/Failed.
	Events        int `json:"events"`
	EventsFailed  int `json:"events_failed"`
	Alarms        int `json:"alarms_expected"`
	AlarmsMissing int `json:"alarms_missing"`
	Migrations    int `json:"migrations"`
	MigrationErrs int `json:"migrations_failed"`
	Refreshes     int `json:"refreshes"`
	RefreshErrs   int `json:"refreshes_failed"`
}

func (b *books) problem(format string, args ...any) {
	b.Problems = append(b.Problems, fmt.Sprintf(format, args...))
}

// total folds the per-kind counts into Attempted and Failed.
func (b *books) total() {
	b.Attempted = b.Events + b.Alarms + b.Migrations + b.Refreshes
	b.Failed = b.EventsFailed + b.AlarmsMissing + b.MigrationErrs + b.RefreshErrs
}

// checkEvents enforces events sent = events decided, where decided is
// processed by detection or refused with a counted reason; the refused
// ones are failed operations.
func (b *books) checkEvents(sent int, st causaliot.TenantStats, nacked int) {
	refused := int(st.Dropped + st.Rejected + st.Shed)
	decided := int(st.Processed) + refused
	b.Events += sent
	b.EventsFailed += max(refused, nacked)
	if decided != sent {
		b.problem("events: sent %d, decided %d (processed %d, refused %d)", sent, decided, st.Processed, refused)
	}
}

// checkAlarms compares one home's alarms against the reference: the Seqs
// of the events whose replay through a lone Monitor completed an alarm.
// Delivered alarms must be a duplicate-free subset of the reference;
// reference alarms not delivered are failed operations.
func (b *books) checkAlarms(tenant string, expected, delivered []uint64) {
	b.Alarms += len(expected)
	want := make(map[uint64]bool, len(expected))
	for _, s := range expected {
		want[s] = true
	}
	seen := make(map[uint64]bool, len(delivered))
	for _, s := range delivered {
		switch {
		case seen[s]:
			b.problem("%s: alarm for seq %d delivered twice", tenant, s)
		case !want[s]:
			b.problem("%s: alarm for seq %d not in the reference", tenant, s)
		}
		seen[s] = true
	}
	for _, s := range expected {
		if !seen[s] {
			b.AlarmsMissing++
		}
	}
}

// reference is the detection oracle: each distinct (model, stream offset)
// replayed once through a single Monitor.ObserveEvent.
type reference struct {
	// alarms holds the Seqs of alarm-completing events; errs the events
	// the monitor refused as skippable (unknown device, out of range).
	alarms []uint64
	errs   []uint64
}

// upTo returns the alarm Seqs and refused-event count within the first n
// events.
func (r *reference) upTo(n int) (alarms []uint64, errs int) {
	k := sort.Search(len(r.alarms), func(i int) bool { return r.alarms[i] > uint64(n) })
	e := sort.Search(len(r.errs), func(i int) bool { return r.errs[i] > uint64(n) })
	return r.alarms[:k], e
}

// replay runs the first n events of st through a fresh monitor.
func replay(sys *causaliot.System, st *stream, n int) (*reference, error) {
	mon, err := sys.NewMonitor()
	if err != nil {
		return nil, err
	}
	defer mon.Close()
	ref := &reference{}
	for i := 0; i < n; i++ {
		ev := st.at(i)
		det, err := mon.ObserveEvent(ev)
		switch {
		case errors.Is(err, causaliot.ErrUnknownDevice), errors.Is(err, causaliot.ErrValueOutOfRange):
			ref.errs = append(ref.errs, ev.Seq)
		case err != nil:
			return nil, err
		case det.Alarm != nil:
			ref.alarms = append(ref.alarms, ev.Seq)
		}
	}
	return ref, nil
}

// refKey names one distinct replay: the model and the stream offset.
type refKey struct{ model, offset int }

// references replays every distinct (model, offset) as far as its
// furthest home got, on two goroutines.
func references(tenants []*tenant) (map[refKey]*reference, error) {
	need := make(map[refKey]int)
	sys := make(map[refKey]*causaliot.System)
	st := make(map[refKey]*stream)
	for _, t := range tenants {
		k := refKey{t.model, t.st.offset}
		if t.sent > need[k] || sys[k] == nil {
			need[k] = max(need[k], t.sent)
			sys[k], st[k] = t.sys, t.st
		}
	}
	keys := make([]refKey, 0, len(need))
	for k := range need {
		keys = append(keys, k)
	}
	out := make(map[refKey]*reference, len(keys))
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	const workers = 2
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(keys); i += workers {
				k := keys[i]
				ref, err := replay(sys[k], st[k], need[k])
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				out[k] = ref
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	return out, firstErr
}

// checkReference holds every home against the reference: the host's
// raised-alarm and refused-event counts must match it exactly (detection
// is deterministic), and delivered alarms must be a subset of it.
func (b *books) checkReference(tenants []*tenant, stats map[string]causaliot.TenantStats) error {
	refs, err := references(tenants)
	if err != nil {
		return fmt.Errorf("reference replay: %w", err)
	}
	for _, t := range tenants {
		expected, errs := refs[refKey{t.model, t.st.offset}].upTo(t.sent)
		st := stats[t.name]
		if int(st.Alarms) != len(expected) {
			b.problem("%s: host raised %d alarms, reference %d", t.name, st.Alarms, len(expected))
		}
		if int(st.Errors) != errs {
			b.problem("%s: host refused %d events as invalid, reference %d", t.name, st.Errors, errs)
		}
		b.checkAlarms(t.name, expected, t.deliveredSeqs())
	}
	return nil
}
