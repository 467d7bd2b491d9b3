package hub

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"
	"unsafe"

	"github.com/causaliot/causaliot/internal/stats"
)

// histErr is the relative error bound stated on Histogram.Percentile.
const histErr = 0.125

func histOf(samples []int64) Histogram {
	var h latencyHist
	for _, v := range samples {
		h.record(time.Duration(v))
	}
	return h.snapshot()
}

func TestHistogramBucketEdges(t *testing.T) {
	if size := unsafe.Sizeof(latencyHist{}); size > 1024 {
		t.Fatalf("per-tenant histogram is %d bytes, want <= 1024", size)
	}
	for i := 0; i < overflowBucket; i++ {
		lo, width := bucketBounds(i)
		if got := bucketOf(lo); got != i {
			t.Fatalf("bucketOf(lo=%d) = %d, want %d", lo, got, i)
		}
		if got := bucketOf(lo + width - 1); got != i {
			t.Fatalf("bucketOf(hi=%d) = %d, want %d", lo+width-1, got, i)
		}
		if got := bucketOf(lo + width); got != i+1 {
			t.Fatalf("bucketOf(next=%d) = %d, want %d", lo+width, got, i+1)
		}
		if i >= subBuckets && 4*width > lo {
			t.Fatalf("bucket %d [%d,+%d) wider than a quarter of its lower edge", i, lo, width)
		}
	}
	for v := int64(0); v < subBuckets; v++ {
		if lo, width := bucketBounds(bucketOf(v)); lo != v || width != 1 {
			t.Fatalf("small duration %d not exact: bucket [%d,+%d)", v, lo, width)
		}
	}
	if got := bucketOf(-7); got != 0 {
		t.Errorf("negative duration bucket = %d, want 0", got)
	}
	if got := bucketOf(1<<maxExp - 1); got != overflowBucket-1 {
		t.Errorf("bucketOf(2^32-1) = %d, want last regular bucket %d", got, overflowBucket-1)
	}
	for _, v := range []int64{1 << maxExp, 1 << 40, math.MaxInt64} {
		if got := bucketOf(v); got != overflowBucket {
			t.Errorf("bucketOf(%d) = %d, want overflow %d", v, got, overflowBucket)
		}
	}
	// Overflowed samples read back as the overflow bucket's lower edge.
	h := histOf([]int64{1 << 40, 1 << 50})
	if h.First != overflowBucket || h.Count() != 2 {
		t.Fatalf("overflow histogram = %+v", h)
	}
	if got := h.Percentile(50); got != 1<<maxExp {
		t.Errorf("overflow p50 = %v, want %v", got, time.Duration(1<<maxExp))
	}
	if got := (Histogram{}).Percentile(99); got != 0 {
		t.Errorf("empty histogram p99 = %v, want 0", got)
	}
}

// TestHistogramPercentileError enforces the stated bound: a percentile read
// from the histogram is within 12.5% of the nearest-rank sample and, on
// dense seeded samples, of stats.Percentile's interpolated one.
func TestHistogramPercentileError(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		samples := make([]int64, 20000)
		floats := make([]float64, len(samples))
		for i := range samples {
			switch i % 3 {
			case 0: // log-normal around ~1µs, the hub's processing time
				samples[i] = int64(math.Exp(7 + 1.5*rng.NormFloat64()))
			case 1: // uniform over the exact and first log buckets
				samples[i] = rng.Int63n(64)
			default: // heavy tail up to ~1s
				samples[i] = int64(math.Exp(rng.Float64() * 20))
			}
			floats[i] = float64(samples[i])
		}
		h := histOf(samples)
		if h.Count() != uint64(len(samples)) {
			t.Fatalf("count = %d, want %d", h.Count(), len(samples))
		}
		sorted := append([]int64(nil), samples...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for _, q := range []float64{1, 25, 50, 90, 99, 99.9, 100} {
			got := float64(h.Percentile(q))
			rank := int(math.Ceil(q / 100 * float64(len(sorted))))
			near := float64(sorted[max(rank, 1)-1])
			if math.Abs(got-near) > histErr*near {
				t.Errorf("seed %d q%v: histogram %v vs nearest-rank %v", seed, q, got, near)
			}
			exact, err := stats.Percentile(floats, q)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-exact) > histErr*exact {
				t.Errorf("seed %d q%v: histogram %v vs stats.Percentile %v", seed, q, got, exact)
			}
		}
	}
}

func TestHistogramMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	draw := func(n int, scale float64) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = int64(math.Exp(rng.NormFloat64()) * scale)
		}
		return out
	}
	a, b := draw(500, 300), draw(700, 1e6)
	ha, hb := histOf(a), histOf(b)
	ca := append([]uint64(nil), ha.Counts...)
	want := histOf(append(append([]int64(nil), a...), b...))
	if got := ha.Merge(hb); !reflect.DeepEqual(got, want) {
		t.Fatalf("merge(a, b) = %+v, want %+v", got, want)
	}
	if got := hb.Merge(ha); !reflect.DeepEqual(got, want) {
		t.Fatalf("merge(b, a) = %+v, want %+v", got, want)
	}
	if !reflect.DeepEqual(ha.Counts, ca) {
		t.Fatal("merge modified its receiver")
	}
	if got := ha.Merge(Histogram{}); !reflect.DeepEqual(got, ha) {
		t.Fatalf("merge with empty = %+v, want %+v", got, ha)
	}
	if got := (Histogram{}).Merge(hb); !reflect.DeepEqual(got, hb) {
		t.Fatalf("empty merge b = %+v, want %+v", got, hb)
	}
}

func TestHistogramConcurrentRecordSnapshot(t *testing.T) {
	const n = 20000
	var h latencyHist
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < n; i++ {
			h.record(time.Duration(i % 5000))
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for {
				select {
				case <-done:
					return
				default:
				}
				s := h.snapshot()
				c := s.Count()
				if c < last || c > n {
					t.Errorf("snapshot count %d after %d (max %d)", c, last, n)
					return
				}
				last = c
				_ = s.Percentile(99)
			}
		}()
	}
	wg.Wait()
	if got := h.snapshot().Count(); got != n {
		t.Fatalf("final count = %d, want %d", got, n)
	}
}

// TestStatsSampleOneInSixteen checks the sampling rate: a tenant's first
// processed event is always timed, then one in sampleEvery.
func TestStatsSampleOneInSixteen(t *testing.T) {
	h := New(Config{Workers: 1})
	for _, name := range []string{"one", "many"} {
		if err := h.Register(name, &recorder{}, TenantConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Submit("one", Event{}); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 2*sampleEvery+1; j++ {
		if err := h.Submit("many", Event{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	s := h.Stats()
	want := map[string]uint64{"many": 3, "one": 1}
	for _, ts := range s.Tenants {
		if got := ts.Latency.Count(); got != want[ts.Tenant] {
			t.Errorf("%s: %d timed events, want %d", ts.Tenant, got, want[ts.Tenant])
		}
	}
	if got := s.Total.Latency.Count(); got != 4 {
		t.Errorf("total timed events = %d, want 4", got)
	}
	if s.Total.P99 != s.Total.Latency.Percentile(99) {
		t.Errorf("total p99 %v is not the merged histogram's %v", s.Total.P99, s.Total.Latency.Percentile(99))
	}
}
