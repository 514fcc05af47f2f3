package oltp

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// runChain runs a fast fault-free test configuration (a nil plan).
func runChain(mode Mode, depth int) *ChainFaultsResult {
	return RunChainFaults(ChainFaultsConfig{ChainConfig: ChainConfig{
		Mode: mode, Depth: depth, Threads: 4, Clients: 4,
		Warmup: sim.Millis(10), Window: sim.Millis(30), Seed: 5,
	}})
}

// throughput is a chain run's operations per minute.
func throughput(r *ChainFaultsResult) float64 { return r.Goodput * 60 }

func TestChainModesOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("chain sweep is slow")
	}
	const depth = 3
	lin := runChain(ModeLinux, depth)
	dip := runChain(ModeDIPC, depth)
	ide := runChain(ModeIdeal, depth)
	if lin.Rel.OpsOK == 0 || dip.Rel.OpsOK == 0 || ide.Rel.OpsOK == 0 {
		t.Fatalf("empty window: linux=%d dipc=%d ideal=%d ops", lin.Rel.OpsOK, dip.Rel.OpsOK, ide.Rel.OpsOK)
	}
	// The Fig. 8 ordering must hold along the depth axis too.
	if !(throughput(lin) < throughput(dip) && throughput(dip) <= throughput(ide)*1.001) {
		t.Fatalf("throughput ordering violated: linux=%.0f dipc=%.0f ideal=%.0f",
			throughput(lin), throughput(dip), throughput(ide))
	}
	if !(lin.AvgLatency > dip.AvgLatency) {
		t.Fatalf("latency ordering violated: linux=%v dipc=%v", lin.AvgLatency, dip.AvgLatency)
	}
}

func TestChainCallsPerOpTracksDepth(t *testing.T) {
	if testing.Short() {
		t.Skip("chain sweep is slow")
	}
	for _, mode := range []Mode{ModeLinux, ModeDIPC, ModeIdeal} {
		for _, depth := range []int{1, 3} {
			r := runChain(mode, depth)
			// Every operation crosses each of the `depth` hops exactly
			// once; in-flight requests at the window edges blur the
			// average slightly.
			if r.CallsPerOp < float64(depth)*0.8 || r.CallsPerOp > float64(depth)*1.2 {
				t.Errorf("%v depth=%d: calls/op = %.2f, want ~%d",
					mode, depth, r.CallsPerOp, depth)
			}
		}
	}
}

func TestChainDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("chain sweep is slow")
	}
	key := func(r *ChainFaultsResult) string {
		return fmt.Sprintf("%d %.6f %d %.4f", r.Rel.OpsOK, throughput(r), int64(r.AvgLatency), r.CallsPerOp)
	}
	for _, mode := range []Mode{ModeLinux, ModeDIPC} {
		a := runChain(mode, 2)
		b := runChain(mode, 2)
		if key(a) != key(b) {
			t.Fatalf("%v: repeat run diverged:\n%s\nvs\n%s", mode, key(a), key(b))
		}
	}
}

func TestChainDefaultsApplied(t *testing.T) {
	if testing.Short() {
		t.Skip("chain run is slow")
	}
	r := RunChainFaults(ChainFaultsConfig{ChainConfig: ChainConfig{
		Mode: ModeIdeal, Window: sim.Millis(20), Warmup: sim.Millis(5)}})
	c := r.Config
	if c.Depth != 1 || c.Threads != 8 || c.CPUs != 4 || c.Clients != 8 || c.ReqBytes != 256 {
		t.Fatalf("defaults not applied: %+v", c)
	}
	if r.Rel.OpsOK == 0 || throughput(r) == 0 {
		t.Fatalf("no work measured: %+v", r)
	}
}
