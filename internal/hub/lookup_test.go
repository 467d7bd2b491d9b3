package hub

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestLookupStressRegisterSubmitStats runs the tenant index's writers
// (Register, Deregister) against its lock-free readers (Submit, Stats,
// TenantStats) under -race. Tenants that churn may refuse a Submit only as
// unknown or closed; the stable tenants must process every accepted event.
func TestLookupStressRegisterSubmitStats(t *testing.T) {
	const stable, churn, producers, events, rounds = 8, 8, 4, 2000, 200
	h := New(Config{Workers: 2, QueueSize: 64})
	name := func(kind string, i int) string { return fmt.Sprintf("%s-%d", kind, i) }
	for i := 0; i < stable; i++ {
		if err := h.Register(name("stable", i), &recorder{}, TenantConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	var accepted atomic.Uint64 // events accepted for stable tenants
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for j := 0; j < events; j++ {
				if err := h.Submit(name("stable", (p+j)%stable), Event{Value: float64(j)}); err != nil {
					t.Errorf("stable submit: %v", err)
					return
				}
				accepted.Add(1)
				err := h.Submit(name("churn", j%churn), Event{Value: float64(j)})
				if err != nil && !errors.Is(err, ErrUnknownTenant) && !errors.Is(err, ErrClosed) {
					t.Errorf("churn submit: %v", err)
					return
				}
			}
		}(p)
	}
	wg.Add(1)
	go func() { // writer: register and deregister the churning tenants
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			n := name("churn", r%churn)
			err := h.Register(n, &recorder{}, TenantConfig{})
			if err != nil && !errors.Is(err, ErrDuplicateTenant) {
				t.Errorf("register %s: %v", n, err)
				return
			}
			if r%3 == 0 {
				if err := h.Deregister(n); err != nil {
					t.Errorf("deregister %s: %v", n, err)
					return
				}
			}
		}
	}()
	wg.Add(1)
	go func() { // reader: whole-hub and single-tenant snapshots
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			s := h.Stats()
			for i := 1; i < len(s.Tenants); i++ {
				if s.Tenants[i-1].Tenant >= s.Tenants[i].Tenant {
					t.Errorf("stats tenants unsorted: %q before %q", s.Tenants[i-1].Tenant, s.Tenants[i].Tenant)
					return
				}
			}
			if _, err := h.TenantStats(name("stable", r%stable)); err != nil {
				t.Errorf("tenant stats: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	var processed uint64
	for _, ts := range h.Stats().Tenants {
		if ts.Ingested != ts.Processed+ts.Dropped {
			t.Errorf("%s: ingested %d != processed %d + dropped %d", ts.Tenant, ts.Ingested, ts.Processed, ts.Dropped)
		}
		for i := 0; i < stable; i++ {
			if ts.Tenant == name("stable", i) {
				processed += ts.Processed
			}
		}
	}
	if processed != accepted.Load() {
		t.Fatalf("stable tenants processed %d events, accepted %d", processed, accepted.Load())
	}
}

// nopProc processes an event with no work, so a benchmark over it measures
// the hub's own per-event cost.
type nopProc struct{}

func (nopProc) Handle(Event) (bool, error) { return false, nil }

// BenchmarkSubmitParallel submits from GOMAXPROCS goroutines across many
// tenants at once, pinning the cost of the tenant lookup that every Submit
// does under producer contention.
func BenchmarkSubmitParallel(b *testing.B) {
	const tenants = 512
	h := New(Config{QueueSize: 4096})
	names := make([]string, tenants)
	for i := range names {
		names[i] = fmt.Sprintf("home-%d", i)
		if err := h.Register(names[i], nopProc{}, TenantConfig{}); err != nil {
			b.Fatal(err)
		}
	}
	var seed atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(seed.Add(1)) * 7919
		for pb.Next() {
			if err := h.Submit(names[i%tenants], Event{}); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
	b.StopTimer()
	if err := h.Close(); err != nil {
		b.Fatal(err)
	}
}
