package hub

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// sampleEvery is the processing-time sampling period: runBatch times one
// processed event in sampleEvery, and always a tenant's first. A clock-read
// pair costs more than detecting an event, so timing every event would
// double the per-event cost of the hub.
const sampleEvery = 16

// Histogram bucket layout: durations in nanoseconds below subBuckets get
// one exact bucket each; above, every power of two splits into subBuckets
// equal-width buckets, up to 2^maxExp ns (~4.3s); longer durations share
// the overflow bucket.
const (
	subBits        = 2
	subBuckets     = 1 << subBits
	maxExp         = 32
	overflowBucket = subBuckets * (maxExp - subBits + 1)
	numBuckets     = overflowBucket + 1
)

// bucketOf returns the histogram bucket holding a duration of v ns.
func bucketOf(v int64) int {
	if v < subBuckets {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1 // floor(log2 v) >= subBits
	if e >= maxExp {
		return overflowBucket
	}
	return (e-subBits+1)<<subBits + int(v>>(e-subBits))&(subBuckets-1)
}

// bucketBounds returns bucket i's lower edge and width in ns; the overflow
// bucket's width is reported as 1 (it has no upper edge).
func bucketBounds(i int) (lo, width int64) {
	if i < subBuckets {
		return int64(i), 1
	}
	e := i>>subBits + subBits - 1
	lo = int64(subBuckets+i&(subBuckets-1)) << (e - subBits)
	if i == overflowBucket {
		return lo, 1
	}
	return lo, 1 << (e - subBits)
}

// latencyHist is one tenant's processing-time histogram: a fixed array of
// atomic bucket counts (1000 bytes). Records are serialized by the
// tenant's procMu; snapshots run concurrently from Stats.
type latencyHist struct {
	counts [numBuckets]atomic.Uint64
}

func (h *latencyHist) record(d time.Duration) {
	h.counts[bucketOf(int64(d))].Add(1)
}

func (h *latencyHist) snapshot() Histogram {
	first, last := -1, -1
	var counts [numBuckets]uint64
	for i := range h.counts {
		if counts[i] = h.counts[i].Load(); counts[i] != 0 {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	if first < 0 {
		return Histogram{}
	}
	return Histogram{First: first, Counts: append([]uint64(nil), counts[first:last+1]...)}
}

// Histogram is a mergeable snapshot of sampled processing times in fixed
// log-linear buckets: exact below 4ns, then four equal-width buckets per
// power of two of nanoseconds, so a bucket is at most a quarter as wide
// as its lower edge. Durations from 2^32ns (~4.3s) up share one overflow
// bucket. Counts[i] is the sample count of bucket First+i; empty buckets
// at both ends are trimmed, so the zero value is the empty histogram.
type Histogram struct {
	First  int
	Counts []uint64
}

// Count returns the number of samples.
func (h Histogram) Count() uint64 {
	var n uint64
	for _, c := range h.Counts {
		n += c
	}
	return n
}

// Merge returns the histogram of both sample sets; neither operand is
// modified.
func (h Histogram) Merge(o Histogram) Histogram {
	if len(o.Counts) == 0 {
		return h
	}
	if len(h.Counts) == 0 {
		return o
	}
	first := min(h.First, o.First)
	end := max(h.First+len(h.Counts), o.First+len(o.Counts))
	out := Histogram{First: first, Counts: make([]uint64, end-first)}
	for i, c := range h.Counts {
		out.Counts[h.First-first+i] += c
	}
	for i, c := range o.Counts {
		out.Counts[o.First-first+i] += c
	}
	return out
}

// Percentile returns the qth percentile (q in [0,100]) of the samples,
// zero for an empty histogram. It is the midpoint of the bucket holding the
// nearest-rank sample, so it lies within 12.5% of that sample's duration;
// in the overflow bucket it is the bucket's lower edge, 2^32ns.
func (h Histogram) Percentile(q float64) time.Duration {
	n := h.Count()
	if n == 0 {
		return 0
	}
	rank := min(max(uint64(math.Ceil(q/100*float64(n))), 1), n)
	i := 0
	for seen := h.Counts[0]; seen < rank; seen += h.Counts[i] {
		i++
	}
	lo, width := bucketBounds(h.First + i)
	return time.Duration(lo + width/2)
}
