package fleet

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/causaliot/causaliot/internal/hub"
)

// TestRouterLookupStress runs the route table's writers (Activate, Remove)
// against its lock-free readers (Dispatch, Route, Tenants) under -race.
// Churning tenants may refuse a Dispatch only as unknown; the stable
// tenants must deliver every dispatched event to their shard exactly once.
func TestRouterLookupStress(t *testing.T) {
	const stable, churn, producers, events, rounds = 8, 8, 4, 2000, 400
	r := NewRouter(0)
	r.AddShard(0)
	r.AddShard(1)
	stableSink, churnSink := newSink(), newSink()
	name := func(kind string, i int) string { return fmt.Sprintf("%s-%d", kind, i) }
	for i := 0; i < stable; i++ {
		if err := r.Activate(name("stable", i), i%2, hub.Block, 8, stableSink.submit); err != nil {
			t.Fatal(err)
		}
	}
	var dispatched [2]atomic.Uint64 // events dispatched to stable tenants, per shard
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for j := 0; j < events; j++ {
				i := (p + j) % stable
				if err := r.Dispatch(name("stable", i), ev(j)); err != nil {
					t.Errorf("stable dispatch: %v", err)
					return
				}
				dispatched[i%2].Add(1)
				err := r.Dispatch(name("churn", j%churn), ev(j))
				if err != nil && !errors.Is(err, hub.ErrUnknownTenant) {
					t.Errorf("churn dispatch: %v", err)
					return
				}
			}
		}(p)
	}
	wg.Add(1)
	go func() { // writer: activate and remove the churning tenants
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			n := name("churn", i%churn)
			err := r.Activate(n, i%2, hub.Block, 8, churnSink.submit)
			if err != nil && !errors.Is(err, ErrDuplicateTenant) {
				t.Errorf("activate %s: %v", n, err)
				return
			}
			if i%3 == 0 {
				if _, ok := r.Remove(n); !ok {
					t.Errorf("remove %s: not routed", n)
					return
				}
			}
		}
	}()
	wg.Add(1)
	go func() { // reader: route queries and table listings
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if shard, ok := r.Route(name("stable", i%stable)); !ok || shard != (i%stable)%2 {
				t.Errorf("route stable-%d = %d, %v", i%stable, shard, ok)
				return
			}
			if got := len(r.Tenants()); got < stable {
				t.Errorf("tenants listed %d, want >= %d", got, stable)
				return
			}
			_ = r.TenantsOn(i % 2)
		}
	}()
	wg.Wait()
	for shard := 0; shard < 2; shard++ {
		if got, want := stableSink.count(shard), dispatched[shard].Load(); uint64(got) != want {
			t.Errorf("shard %d received %d stable events, %d dispatched", shard, got, want)
		}
	}
}
