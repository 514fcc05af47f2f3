package oltp

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/hostalloc"
	"repro/internal/sim"
)

// marginalAllocs runs one configuration at measured windows w and 2w
// and returns the host heap allocations per extra completed request:
// (allocs(2w) - allocs(w)) / (ops(2w) - ops(w)). Set-up, boot and
// warmup are identical in both runs, so they cancel.
func marginalAllocs(t *testing.T, w sim.Time, run func(window sim.Time) int64) float64 {
	t.Helper()
	var ops [2]int64
	var allocs [2]uint64
	for i, window := range []sim.Time{w, 2 * w} {
		allocs[i] = hostalloc.Count(func() { ops[i] = run(window) })
	}
	if ops[1] <= ops[0] {
		t.Fatalf("window %v completed %d requests, window %v only %d", 2*w, ops[1], w, ops[0])
	}
	return float64(allocs[1]-allocs[0]) / float64(ops[1]-ops[0])
}

// TestRequestPathMarginalAllocs pins the host allocations the OLTP
// request path makes per simulated request, in steady state. The socket
// and run queues are rings, each calling thread reuses one request
// record (Linux) or argument record (dIPC), query results travel in the
// operation's own query plan, and a closed-loop client redraws one
// request. What remains is genuine simulated state:
//
//   - oltp.Run: DB.Exec order inserts. About 0.9 order lines per request
//     each allocate the order's item list and box the new order id,
//     plus the amortized growth of the orders table and of the
//     customer's order history.
//   - RunOpenLoop: one request record per arrival (an open-loop client
//     may abandon a request that is still queued, so records cannot be
//     recycled) plus amortized histogram and queue growth.
//
// Each bound is the measured value (2.6 for oltp.Run in every mode, 1.0
// for RunOpenLoop) plus under half an allocation of headroom, so a
// change that adds even one allocation per request fails.
func TestRequestPathMarginalAllocs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		bound float64
		run   func(window sim.Time) int64
	}{
		{"oltp-linux", 3.0, func(window sim.Time) int64 {
			return int64(Run(Config{Mode: ModeLinux, InMemory: true, Window: window, Seed: 1}).Ops)
		}},
		{"oltp-dipc", 3.0, func(window sim.Time) int64 {
			return int64(Run(Config{Mode: ModeDIPC, InMemory: true, Window: window, Seed: 1}).Ops)
		}},
		{"oltp-ideal", 3.0, func(window sim.Time) int64 {
			return int64(Run(Config{Mode: ModeIdeal, InMemory: true, Window: window, Seed: 1}).Ops)
		}},
		{"openloop-linux", 1.1, func(window sim.Time) int64 {
			return openLoopOps(ModeLinux, window)
		}},
		{"openloop-dipc", 1.1, func(window sim.Time) int64 {
			return openLoopOps(ModeDIPC, window)
		}},
		{"openloop-ideal", 1.1, func(window sim.Time) int64 {
			return openLoopOps(ModeIdeal, window)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := marginalAllocs(t, sim.Millis(250), tc.run)
			t.Logf("%.3f allocs per request", got)
			if got > tc.bound {
				t.Errorf("request path allocates %.3f objects per request, want <= %v", got, tc.bound)
			}
		})
	}
}

// openLoopOps runs a small fault-free open-loop chain below its knee
// and returns the requests completed in the window.
func openLoopOps(mode Mode, window sim.Time) int64 {
	r := RunOpenLoop(OpenLoopConfig{
		ChainFaultsConfig: ChainFaultsConfig{
			ChainConfig: ChainConfig{Mode: mode, Depth: 2, Threads: 4, CPUs: 2,
				Work: sim.Micros(10), Warmup: sim.Millis(5), Window: window, Seed: 1},
			Retry: faults.RetryPolicy{Deadline: sim.Micros(500)},
		},
		MeanGap:  sim.Micros(50),
		Sessions: 64,
		Gateway:  GatewayConfig{Policy: AdmitFIFO, Capacity: 64},
	})
	return r.Rel.Ops()
}
