package main

import (
	"sort"
	"testing"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestQuantileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true}, // 10 samples above 990
		{999, 0.99, 990, false}, // 9 above
		{20, 0.50, 10, true},
		{19, 0.50, 10, false},
		{1, 0.50, 1, false},
	} {
		got, ok := quantile(seq(tc.n), tc.q)
		if got != tc.want || ok != tc.ok {
			t.Errorf("quantile(1..%d, %v) = %v, %v; want %v, %v", tc.n, tc.q, got, ok, tc.want, tc.ok)
		}
	}
	if _, ok := quantile(nil, 0.5); ok {
		t.Error("empty sample supported")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median %v", got)
	}
}

func TestWindowedTakesMedianOfSupportedWindows(t *testing.T) {
	// Five windows of 100 samples each; window k's values are k*1000 +
	// 1..100, except window 2 which has only 5 samples.
	var samples []sample
	for w := 0; w < 5; w++ {
		n := 100
		if w == 2 {
			n = 5
		}
		for i := 1; i <= n; i++ {
			samples = append(samples, sample{at: int64(w*100 + i - 1), v: float64(w*1000 + i)})
		}
	}
	got := windowed(samples, 500, 5, 0.5)
	// Supported windows 0,1,3,4 have medians 50, 1050, 3050, 4050.
	if !got.OK || got.Windows != 4 || got.Value != (1050+3050)/2.0 || got.Samples != 405 {
		t.Errorf("windowed = %+v", got)
	}
	if got := windowed(samples, 500, 5, 0.99); got.OK {
		t.Errorf("p99 of 100-sample windows supported: %+v", got)
	}
}

func TestWhole(t *testing.T) {
	vals := seq(200)
	sort.Sort(sort.Reverse(sort.Float64Slice(vals)))
	if got := whole(vals, 0.9); got.Value != 180 || !got.OK || got.Samples != 200 {
		t.Errorf("whole p90 = %+v", got)
	}
}
