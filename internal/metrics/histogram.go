package metrics

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// numBuckets is the number of log2 histogram buckets: bucket i counts
// observations v with 2^(i-1) < v <= 2^i (bucket 0 counts v <= 1, the
// last bucket is unbounded). 50 buckets cover [1, 2^49] — more than 13
// days in nanoseconds, or half a petabyte in bytes.
const numBuckets = 50

// cacheLine is the padding granularity separating shards, in units of
// int64 words (64 bytes on every platform this targets).
const cacheLine = 8

// hstride is the per-shard block stride of a histogram, in int64 words:
// the bucket array plus a count and a sum word, rounded up to whole
// cache lines so shards never share one.
const hstride = (numBuckets + 2 + cacheLine - 1) / cacheLine * cacheLine

// Histogram is a sharded log-scale (power-of-two bucket) histogram,
// suitable for latencies in nanoseconds and sizes in bytes, whose
// bucket-index computation is a single bit-length instruction. A nil
// *Histogram is the disabled fast path.
type Histogram struct {
	name   string
	help   string
	labels []Label
	shards int
	// cells holds per shard: numBuckets bucket counts, then count, then
	// sum, padded to hstride.
	cells []int64
}

func newHistogram(name, help string, labels []Label, shards int) *Histogram {
	return &Histogram{
		name:   name,
		help:   help,
		labels: labels,
		shards: shards,
		cells:  make([]int64, shards*hstride),
	}
}

// bucketOf maps an observation to its log2 bucket.
func bucketOf(v int64) int {
	if v <= 1 {
		return 0
	}
	b := bits.Len64(uint64(v - 1)) // smallest b with v <= 2^b
	if b >= numBuckets {
		return numBuckets - 1
	}
	return b
}

// BucketBound returns the inclusive upper bound of bucket i (the
// Prometheus `le` value); the last bucket reports -1, meaning +Inf.
func BucketBound(i int) int64 {
	if i >= numBuckets-1 {
		return -1
	}
	return int64(1) << uint(i)
}

// Observe records one observation on the given shard. Negative values
// are clamped to zero.
func (h *Histogram) Observe(shard int, v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	base := int(uint(shard)%uint(h.shards)) * hstride
	atomic.AddInt64(&h.cells[base+bucketOf(v)], 1)
	atomic.AddInt64(&h.cells[base+numBuckets], 1)   // count
	atomic.AddInt64(&h.cells[base+numBuckets+1], v) // sum
}

// ObserveDuration records d in nanoseconds.
func (h *Histogram) ObserveDuration(shard int, d time.Duration) {
	h.Observe(shard, d.Nanoseconds())
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for s := 0; s < h.shards; s++ {
		n += atomic.LoadInt64(&h.cells[s*hstride+numBuckets])
	}
	return n
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	var sum int64
	for s := 0; s < h.shards; s++ {
		sum += atomic.LoadInt64(&h.cells[s*hstride+numBuckets+1])
	}
	return sum
}

// Buckets returns the per-bucket counts summed over shards.
func (h *Histogram) Buckets() [numBuckets]int64 {
	var out [numBuckets]int64
	if h == nil {
		return out
	}
	for s := 0; s < h.shards; s++ {
		base := s * hstride
		for i := 0; i < numBuckets; i++ {
			out[i] += atomic.LoadInt64(&h.cells[base+i])
		}
	}
	return out
}

// PerShardCount returns per-shard observation counts (per-rank
// breakdowns for imbalance analysis).
func (h *Histogram) PerShardCount() []int64 {
	if h == nil {
		return nil
	}
	out := make([]int64, h.shards)
	for s := range out {
		out[s] = atomic.LoadInt64(&h.cells[s*hstride+numBuckets])
	}
	return out
}

// PerShardSum returns per-shard observation sums.
func (h *Histogram) PerShardSum() []int64 {
	if h == nil {
		return nil
	}
	out := make([]int64, h.shards)
	for s := range out {
		out[s] = atomic.LoadInt64(&h.cells[s*hstride+numBuckets+1])
	}
	return out
}

// Quantile returns an estimate of quantile q (0..1) from the bucket
// counts: the upper bound of the bucket holding the q-th observation.
// Returns 0 when the histogram is empty or nil.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	total := h.Count()
	if total == 0 {
		return 0
	}
	target := int64(q * float64(total))
	if target >= total {
		target = total - 1
	}
	buckets := h.Buckets()
	var cum int64
	for i, c := range buckets {
		cum += c
		if cum > target {
			if b := BucketBound(i); b >= 0 {
				return b
			}
			return 1 << (numBuckets - 1)
		}
	}
	return 0
}
