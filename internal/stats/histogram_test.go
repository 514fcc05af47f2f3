package stats

import (
	"reflect"
	"testing"

	"repro/internal/sim"
)

// Exact-bucket region: values below histSubCount are reported exactly.
func TestHistogramExactSmallValues(t *testing.T) {
	var h Histogram
	for v := sim.Time(0); v < histSubCount; v++ {
		h.Record(v)
	}
	if got := h.Count(); got != histSubCount {
		t.Fatalf("Count = %d, want %d", got, histSubCount)
	}
	if got := h.Max(); got != histSubCount-1 {
		t.Fatalf("Max = %d, want %d", got, histSubCount-1)
	}
	// With one observation per unit value, the q-quantile is the
	// ceil(q*n)-th smallest, which the unit buckets report exactly.
	if got := h.Quantile(0.5); got != histSubCount/2-1 {
		t.Fatalf("P50 = %d, want %d", got, histSubCount/2-1)
	}
	if got := h.Quantile(1); got != histSubCount-1 {
		t.Fatalf("Quantile(1) = %d, want %d", got, histSubCount-1)
	}
}

// The relative error bound: every value's reported bucket upper bound
// overstates it by at most 1/histHalf.
func TestHistogramErrorBound(t *testing.T) {
	rng := sim.NewRand(7)
	for i := 0; i < 100000; i++ {
		v := sim.Time(rng.Uint64() >> (1 + uint(rng.Intn(48))))
		var h Histogram
		h.Record(v)
		got := h.Quantile(0.99)
		if got != v {
			t.Fatalf("single-value quantile %d != recorded %d (max must cap the bucket bound)", got, v)
		}
		// The raw bucket bound, uncapped by max, stays within the bound.
		u := histUpper(histIndex(uint64(v)))
		if u < v {
			t.Fatalf("bucket upper bound %d below value %d", u, v)
		}
		if v >= histSubCount && float64(u-v) > float64(v)/histHalf {
			t.Fatalf("bucket error %d exceeds %d/%d for value %d", u-v, v, histHalf, v)
		}
	}
}

// Index sanity across the whole int64 range, including the top octave.
func TestHistogramIndexRange(t *testing.T) {
	probes := []uint64{0, 1, histSubCount - 1, histSubCount, histSubCount + 1,
		1 << 20, 1<<20 + 7, 1 << 40, 1<<62 + 12345, 1<<63 - 1}
	for _, v := range probes {
		i := histIndex(v)
		if i < 0 || i >= histBuckets {
			t.Fatalf("histIndex(%d) = %d out of [0, %d)", v, i, histBuckets)
		}
		if u := histUpper(i); uint64(u) < v {
			t.Fatalf("histUpper(%d) = %d below value %d", i, u, v)
		}
	}
	if i := histIndex(1<<63 - 1); i != histBuckets-1 {
		t.Fatalf("max value maps to bucket %d, want last bucket %d", i, histBuckets-1)
	}
}

// TestHistogramMergeEqualsSingle mirrors TestMergeEqualsSingleAccumulator:
// recording a stream into per-shard histograms and merging them must be
// indistinguishable — counts, max, and every extracted percentile — from
// recording the whole stream into one histogram.
func TestHistogramMergeEqualsSingle(t *testing.T) {
	const shards = 4
	rng := sim.NewRand(42)
	var single Histogram
	parts := make([]Histogram, shards)
	for i := 0; i < 50000; i++ {
		v := sim.Time(rng.Uint64() >> (12 + uint(rng.Intn(30))))
		single.Record(v)
		parts[i%shards].Record(v)
	}
	var merged Histogram
	for i := range parts {
		merged.Merge(&parts[i])
	}
	if !reflect.DeepEqual(merged, single) {
		t.Fatalf("merged histogram differs from single-stream histogram")
	}
	for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.99, 0.999, 1} {
		if m, s := merged.Quantile(q), single.Quantile(q); m != s {
			t.Fatalf("Quantile(%g): merged %d != single %d", q, m, s)
		}
	}
}

// Property test over random stream shapes and shard counts: merge order
// and partition assignment never change any percentile.
func TestHistogramMergeProperty(t *testing.T) {
	rng := sim.NewRand(99)
	for trial := 0; trial < 20; trial++ {
		shards := 1 + rng.Intn(8)
		n := 100 + rng.Intn(5000)
		var single Histogram
		parts := make([]Histogram, shards)
		for i := 0; i < n; i++ {
			v := sim.Time(rng.Uint64() >> (1 + uint(rng.Intn(60))))
			single.Record(v)
			parts[rng.Intn(shards)].Record(v)
		}
		// Merge in reverse partition order: addition must not care.
		var merged Histogram
		for i := len(parts) - 1; i >= 0; i-- {
			merged.Merge(&parts[i])
		}
		if !reflect.DeepEqual(merged, single) {
			t.Fatalf("trial %d (shards=%d, n=%d): merged != single", trial, shards, n)
		}
		for _, q := range []float64{0.5, 0.99, 0.999, 1} {
			if m, s := merged.Quantile(q), single.Quantile(q); m != s {
				t.Fatalf("trial %d: Quantile(%g): merged %d != single %d", trial, q, m, s)
			}
		}
	}
}

// The accumulator integration: AddOp feeds the histogram, Merge folds it.
func TestAccumulatorHistogram(t *testing.T) {
	var a, b Accumulator
	a.AddOp(sim.Micros(10))
	a.AddOp(sim.Micros(20))
	b.AddOp(sim.Micros(1000))
	a.Merge(&b)
	if got := a.Hist.Count(); got != 3 {
		t.Fatalf("merged Hist.Count = %d, want 3", got)
	}
	if got := a.Hist.Max(); got != sim.Micros(1000) {
		t.Fatalf("merged Hist.Max = %v, want 1ms", got)
	}
}

// The record path must not allocate: it runs once per completed
// operation inside the measurement loop of every open-loop run.
func TestHistogramRecordZeroAlloc(t *testing.T) {
	h := &Histogram{}
	v := sim.Micros(137)
	allocs := testing.AllocsPerRun(1000, func() {
		h.Record(v)
		v += 977
	})
	if allocs != 0 {
		t.Fatalf("Histogram.Record allocates %.1f allocs/op, want 0", allocs)
	}
}

// An empty histogram reads zero everywhere.
func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Max() != 0 || h.Quantile(0.99) != 0 || h.P50() != 0 {
		t.Fatalf("empty histogram reads non-zero")
	}
}

// Counters are allocated on first use: an empty histogram holds none,
// merging empties keeps it that way and reads zero everywhere, and
// merging an empty histogram into a recorded one changes nothing.
func TestHistogramLazyCounters(t *testing.T) {
	var a, b Histogram
	a.Merge(&b)
	if a.counts != nil || b.counts != nil {
		t.Fatalf("merging empty histograms materialized counters")
	}
	if a.Count() != 0 || a.Max() != 0 || a.Quantile(0.5) != 0 || a.Quantile(1) != 0 {
		t.Fatalf("merged empty histogram reads non-zero")
	}
	for _, v := range []sim.Time{3, sim.Micros(7), sim.Micros(900)} {
		a.Record(v)
	}
	want := a
	wantCounts := *a.counts
	a.Merge(&b)
	if a.total != want.total || a.max != want.max || *a.counts != wantCounts {
		t.Fatalf("merging an empty histogram changed a recorded one")
	}
	b.Merge(&a)
	if !reflect.DeepEqual(b, a) || b.counts == a.counts {
		t.Fatalf("merging into an empty histogram must copy the counters into its own array")
	}
}
