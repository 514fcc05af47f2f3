package stats

import (
	"math/bits"

	"repro/internal/sim"
)

// Histogram is a streaming fixed-bucket log-linear latency histogram:
// values below 2^histSubBits land in exact unit buckets, everything
// above is split into 2^(histSubBits-1) linear sub-buckets per
// power-of-two octave. Bucket boundaries are fixed at compile time, so
// recording is a single shift/increment with zero allocation, and two
// histograms recorded on different shards merge by elementwise addition
// — commutative, associative, placement-invariant — which is what lets
// an Accumulator fold per-shard tails into exact global percentiles.
//
// Resolution: a value v > histSubCount falls in a bucket of width
// 2^shift starting at (32..63)<<shift, so the reported quantile
// overstates the true value by at most one bucket width — a relative
// error bound of 1/histHalf (3.125% at histSubBits=6). The maximum is
// tracked exactly and caps every quantile, so Quantile(1) is exact.
//
// The counters are allocated by the first Record (or the first Merge of
// a non-empty histogram), so a histogram that never records costs only
// its header: per-machine accumulators on machines that complete no
// operations stay small. Counters are therefore shared by value copies
// of a histogram that has recorded; give each partition its own
// Histogram (or Accumulator) and combine them with Merge.
type Histogram struct {
	counts *[histBuckets]int64 // nil while total == 0
	total  int64
	max    sim.Time
}

const (
	// histSubBits fixes the trade-off between footprint and tail
	// resolution: 64 sub-buckets per octave (32 after the first),
	// ~15 KiB of counters, 3.125% worst-case quantile error.
	histSubBits  = 6
	histSubCount = 1 << histSubBits // exact unit buckets below this value
	histHalf     = histSubCount >> 1
	// histBands covers every non-negative int64 (sim.Time is ps):
	// values with bit length histSubBits+1 .. 63 each get one band of
	// histHalf linear sub-buckets.
	histBands   = 63 - histSubBits
	histBuckets = histSubCount + histBands*histHalf
)

// histIndex maps a non-negative value to its bucket.
//
//dipcvet:noalloc
func histIndex(v uint64) int {
	if v < histSubCount {
		return int(v)
	}
	shift := bits.Len64(v) - histSubBits // >= 1
	return histSubCount + (shift-1)*histHalf + int(v>>uint(shift)) - histHalf
}

// histUpper is the inclusive upper bound of bucket i, the value a
// quantile falling in the bucket reports (capped by the exact max).
func histUpper(i int) sim.Time {
	if i < histSubCount {
		return sim.Time(i)
	}
	band := (i - histSubCount) / histHalf
	off := (i - histSubCount) % histHalf
	shift := uint(band + 1)
	lo := (uint64(off) + histHalf) << shift
	return sim.Time(lo + (1 << shift) - 1)
}

// Record adds one latency observation. Negative values clamp to zero.
// This is the per-operation hot path of the open-loop runners; it must
// never allocate.
//
//dipcvet:noalloc
func (h *Histogram) Record(v sim.Time) {
	if v < 0 {
		v = 0
	}
	if h.counts == nil {
		h.materialize()
	}
	h.counts[histIndex(uint64(v))]++
	h.total++
	if v > h.max {
		h.max = v
	}
}

// materialize allocates the counters; it runs once per histogram, off
// Record's allocation-free steady state.
func (h *Histogram) materialize() { h.counts = new([histBuckets]int64) }

// Count returns the number of recorded observations.
func (h *Histogram) Count() int64 { return h.total }

// Max returns the largest recorded observation, exactly.
func (h *Histogram) Max() sim.Time { return h.max }

// Merge folds other into h: elementwise counter addition plus the exact
// max. Merging shard-local histograms in any order yields the same
// result as recording every observation into one histogram.
func (h *Histogram) Merge(other *Histogram) {
	if other.counts == nil {
		return // empty: nothing to add, and max is 0
	}
	if h.counts == nil {
		h.materialize()
	}
	for i := range h.counts {
		h.counts[i] += other.counts[i]
	}
	h.total += other.total
	if other.max > h.max {
		h.max = other.max
	}
}

// Quantile returns the value at quantile q in [0, 1]: the upper bound
// of the bucket holding the ceil(q*total)-th smallest observation,
// capped by the exact maximum. An empty histogram reads 0.
func (h *Histogram) Quantile(q float64) sim.Time {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		q = 0
	}
	if q >= 1 {
		return h.max
	}
	// Nearest-rank: the ceil(q*total)-th smallest observation.
	rank := int64(q * float64(h.total))
	if float64(rank) < q*float64(h.total) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > h.total {
		rank = h.total
	}
	var cum int64
	for i := range h.counts {
		cum += h.counts[i]
		if cum >= rank {
			if u := histUpper(i); u < h.max {
				return u
			}
			return h.max
		}
	}
	return h.max
}

// P50 is the median.
func (h *Histogram) P50() sim.Time { return h.Quantile(0.50) }

// P99 is the 99th percentile.
func (h *Histogram) P99() sim.Time { return h.Quantile(0.99) }

// P999 is the 99.9th percentile.
func (h *Histogram) P999() sim.Time { return h.Quantile(0.999) }
