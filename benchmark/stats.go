package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of sorted and whether it is
// supported: at least minBeyond samples lie above it.
func quantile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	k := int(math.Ceil(q*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	return sorted[k], n-1-k >= minBeyond
}

// median of vals (not required sorted); 0 for none.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// sample is one timing observed at offset at (ns from the measured
// interval's start) with value v.
type sample struct {
	at int64
	v  float64
}

// timing is a percentile reported as the median of per-window
// percentiles, with the samples behind it.
type timing struct {
	Value     float64   `json:"value"`
	Samples   int       `json:"samples"`
	Windows   int       `json:"windows"`
	OK        bool      `json:"supported"`
	PerWindow []float64 `json:"per_window,omitempty"`
}

// minWindows is how many supported windows a windowed percentile needs.
const minWindows = 3

// windowed splits samples by time into windows equal slices of [0, span)
// and reports the median over windows of each window's q-quantile. A
// window whose quantile has fewer than minBeyond samples beyond it is
// left out; the result is unsupported unless minWindows remain. Taking
// the median across windows keeps one stalled second from setting a tail
// percentile of the whole run.
func windowed(samples []sample, span int64, windows int, q float64) timing {
	buckets := make([][]float64, windows)
	for _, s := range samples {
		w := int(s.at * int64(windows) / max(span, 1))
		w = min(max(w, 0), windows-1)
		buckets[w] = append(buckets[w], s.v)
	}
	var per []float64
	for _, b := range buckets {
		sort.Float64s(b)
		if v, ok := quantile(b, q); ok {
			per = append(per, v)
		}
	}
	return timing{Value: median(per), Samples: len(samples), Windows: len(per), OK: len(per) >= minWindows, PerWindow: per}
}
