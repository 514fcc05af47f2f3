package main

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/apps/oltp"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/stats"
)

// defaultSeed is the seed whose simulated outputs are pinned in pins.
// Any other seed is checked by invariants instead.
const defaultSeed = 1

// outcome is what one execution of a workload produced in simulation.
// Nothing in it depends on the host, so every execution with the same
// seed must produce an identical outcome.
type outcome struct {
	// requests is the number of benchmark operations: simulated requests
	// (top-level calls for crosscall-deep) completed in the measured
	// windows.
	requests int64
	// outputs are the pinned simulated outputs, in a fixed order.
	outputs []output
	// model holds the simulated per-layer counts the traced run reports.
	model map[string]float64
}

type output struct {
	name  string
	value float64
}

func (o *outcome) add(name string, v float64) { o.outputs = append(o.outputs, output{name, v}) }

// canonical renders the outputs one per line with 12 significant digits,
// the form pins are written in.
func (o *outcome) canonical() string {
	var b strings.Builder
	for _, out := range o.outputs {
		b.WriteString(out.name)
		b.WriteByte('=')
		b.WriteString(strconv.FormatFloat(out.value, 'g', 12, 64))
		b.WriteByte('\n')
	}
	return b.String()
}

func (o *outcome) get(name string) float64 {
	for _, out := range o.outputs {
		if out.name == name {
			return out.value
		}
	}
	panic("perfbench: no output " + name)
}

// workload is one benchmark workload.
type workload struct {
	name string
	// run executes the workload once, the way its users run it. With
	// setupOnly the simulated windows shrink to a nanosecond, so the
	// call builds and boots everything and then stops before the first
	// measured request.
	run func(seed uint64, setupOnly bool) *outcome
	// setupBatch is how many set-ups one timed set-up span repeats: one
	// where a set-up takes milliseconds, more where it takes less. Every
	// set-up leaks the parked goroutines of its simulation, so spans are
	// kept short and timed once per execution instead.
	setupBatch int
	// repSeconds is the nominal host time of one rep (set-up span plus
	// execution) on the reference host, 2 cores of a Xeon VM, go1.24.
	repSeconds float64
	// invariants checks an outcome at a seed that has no pin.
	invariants func(o *outcome) error
	// twin, when set, runs a reference configuration whose outcome must
	// equal run's at the same seed (rack-sharded at shards=1).
	twin func(seed uint64) *outcome
}

var workloads = []*workload{
	{name: "oltp-closed", run: runOLTPClosed, setupBatch: 1, repSeconds: 2.1, invariants: oltpClosedInvariants},
	{name: "chain-open", run: runChainOpen, setupBatch: 1, repSeconds: 2.0, invariants: chainOpenInvariants},
	{name: "rack-sharded", run: func(seed uint64, setupOnly bool) *outcome { return runRack(seed, setupOnly, 2) },
		setupBatch: 16, repSeconds: 1.75, invariants: rackInvariants,
		twin: func(seed uint64) *outcome { return runRack(seed, false, 1) }},
	{name: "crosscall-deep", run: runCrossCall, setupBatch: 16, repSeconds: 1.4, invariants: crossCallInvariants},
}

func lookupWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// windows returns the warmup and measured windows of a run, or a
// nanosecond each for a set-up-only run (zero would select the
// runners' defaults).
func windows(setupOnly bool, warmup, window sim.Time) (sim.Time, sim.Time) {
	if setupOnly {
		return 1, 1
	}
	return warmup, window
}

// modes are the two isolation configurations every OLTP workload runs,
// baseline first: the paper's Linux-vs-dIPC comparison.
var modes = []oltp.Mode{oltp.ModeLinux, oltp.ModeDIPC}

func modeKey(m oltp.Mode) string { return strings.ToLower(m.String()) }

// addShares records the simulated time breakdown as shares of the
// window.
func addShares(o *outcome, prefix string, bd stats.Breakdown) {
	for b := stats.Block(0); b < stats.NumBlocks; b++ {
		o.add(fmt.Sprintf("%s.share%d", prefix, int(b)), bd.Share(b))
	}
}

// setModelShares fills the model.*_share counts from a breakdown.
func setModelShares(o *outcome, bd stats.Breakdown) {
	o.model["model.proxy_share"] = bd.Share(stats.BlockProxy)
	o.model["model.kernel_share"] = bd.Share(stats.BlockKernel)
	o.model["model.sched_share"] = bd.Share(stats.BlockSched)
	o.model["model.idle_share"] = bd.Share(stats.BlockIdle)
}

// oltp-closed: the paper's Fig. 8 OLTP stack, in-memory database, 16
// threads per tier, 16 closed-loop clients, Linux then dIPC.
const oltpWindow = 2 * sim.Second

func runOLTPClosed(seed uint64, setupOnly bool) *outcome {
	warmup, window := windows(setupOnly, sim.Millis(60), oltpWindow)
	o := &outcome{model: map[string]float64{}}
	for _, mode := range modes {
		r := oltp.Run(oltp.Config{Mode: mode, InMemory: true, Threads: 16, Clients: 16,
			Warmup: warmup, Window: window, Seed: seed})
		k := modeKey(mode)
		o.requests += int64(r.Ops)
		o.add(k+".ops", float64(r.Ops))
		o.add(k+".ops_per_min", r.Throughput)
		o.add(k+".avg_latency_ps", float64(r.AvgLatency))
		o.add(k+".calls_per_op", r.CallsPerOp)
		o.add(k+".breakdown_total_ps", float64(r.Breakdown.Total()))
		addShares(o, k, r.Breakdown)
		if mode == oltp.ModeDIPC {
			o.model["oltp.calls_per_req"] = r.CallsPerOp
			setModelShares(o, r.Breakdown)
		}
	}
	return o
}

func oltpClosedInvariants(o *outcome) error {
	for _, mode := range modes {
		k := modeKey(mode)
		if o.get(k+".ops") <= 0 {
			return fmt.Errorf("%s completed no requests", k)
		}
		// Each of oltp.Run's 4 default CPUs accounts for the whole window
		// (to within the last partially charged slices).
		if got, want := o.get(k+".breakdown_total_ps"), float64(4*oltpWindow); math.Abs(got/want-1) > 1e-3 {
			return fmt.Errorf("%s breakdown covers %v ps of CPU time, want %v", k, got, want)
		}
		if err := sharesSumToOne(o, k); err != nil {
			return err
		}
	}
	// The paper's headline result: dIPC outperforms Linux on OLTP.
	if o.get("dipc.ops") <= o.get("linux.ops") {
		return fmt.Errorf("dIPC (%v ops) not faster than Linux (%v ops)", o.get("dipc.ops"), o.get("linux.ops"))
	}
	return nil
}

// chain-open: the §7.5 tier chain (depth 2) under open-loop Poisson
// arrivals at an offered rate between the Linux and dIPC knees, behind a
// bounded FIFO gateway, with one retry per hop.
const (
	chainKops     = 80
	chainRequests = 4
	chainSessions = 512
	chainWindow   = 1 * sim.Second
	chainDropProb = 0.005
)

func runChainOpen(seed uint64, setupOnly bool) *outcome {
	warmup, window := windows(setupOnly, sim.Millis(5), chainWindow)
	o := &outcome{model: map[string]float64{}}
	var attempts, ops int64
	for _, mode := range modes {
		r := oltp.RunOpenLoop(oltp.OpenLoopConfig{
			ChainFaultsConfig: oltp.ChainFaultsConfig{
				ChainConfig: oltp.ChainConfig{Mode: mode, Depth: 2, Threads: 8, CPUs: 4,
					Work: sim.Micros(10), Warmup: warmup, Window: window, Seed: seed},
				Plan:  &faults.Plan{Seed: seed, DropProb: chainDropProb},
				Retry: faults.RetryPolicy{Deadline: sim.Micros(200), MaxRetries: 1},
			},
			MeanGap:  sim.Time(chainRequests) * sim.Second / sim.Time(chainKops*1000),
			Sessions: chainSessions,
			Requests: chainRequests,
			Deadline: sim.Millis(2),
			Gateway:  oltp.GatewayConfig{Policy: oltp.AdmitFIFO, Capacity: 128},
		})
		k := modeKey(mode)
		done := r.Rel.Ops()
		o.requests += done
		ops += done
		attempts += r.Attempts.Attempts
		o.add(k+".offered", float64(r.Offered))
		o.add(k+".balked", float64(r.Balked))
		o.add(k+".ok", float64(r.Rel.OpsOK))
		o.add(k+".failed", float64(r.Rel.OpsFailed))
		o.add(k+".timeouts", float64(r.Rel.Timeouts))
		o.add(k+".rejected", float64(r.Rel.Rejected))
		o.add(k+".faults", float64(r.Rel.Faults))
		o.add(k+".attempts", float64(r.Attempts.Attempts))
		o.add(k+".retries", float64(r.Attempts.Retries))
		o.add(k+".p50_ps", float64(r.P50))
		o.add(k+".p99_ps", float64(r.P99))
		o.add(k+".max_ps", float64(r.Max))
		o.add(k+".admitted", float64(r.Admitted))
		addShares(o, k, r.Breakdown)
		o.model["oltp.timeouts"] += float64(r.Rel.Timeouts)
		o.model["oltp.rejected"] += float64(r.Rel.Rejected)
		if mode == oltp.ModeDIPC {
			o.model["stats.p99_sim_us"] = r.P99.Microseconds()
			setModelShares(o, r.Breakdown)
		}
	}
	if ops > 0 {
		o.model["oltp.retry_amp"] = float64(attempts) / float64(ops)
	}
	return o
}

func chainOpenInvariants(o *outcome) error {
	for _, mode := range modes {
		k := modeKey(mode)
		offered, ok, failed := o.get(k+".offered"), o.get(k+".ok"), o.get(k+".failed")
		if ok <= 0 {
			return fmt.Errorf("%s completed no requests", k)
		}
		// Conservation: offered = ok + failed + in flight. Offers count
		// by issue time and outcomes by completion time, so the in-flight
		// term is the change in requests outstanding across the window,
		// at most one per session slot either way.
		if inFlight := offered - ok - failed; math.Abs(inFlight) > chainSessions {
			return fmt.Errorf("%s conservation: offered %v = ok %v + failed %v + in flight %v exceeds %d slots",
				k, offered, ok, failed, inFlight, chainSessions)
		}
		if r, t, f := o.get(k+".rejected"), o.get(k+".timeouts"), o.get(k+".faults"); r+t+f != failed {
			return fmt.Errorf("%s failures %v != rejected %v + timeouts %v + faults %v", k, failed, r, t, f)
		}
		if o.get(k+".retries") > o.get(k+".attempts") {
			return fmt.Errorf("%s retries exceed attempts", k)
		}
		if o.get(k+".p50_ps") > o.get(k+".p99_ps") || o.get(k+".p99_ps") > o.get(k+".max_ps") {
			return fmt.Errorf("%s latency quantiles out of order", k)
		}
		if err := sharesSumToOne(o, k); err != nil {
			return err
		}
	}
	// The offered rate sits past the Linux knee and below the dIPC one.
	if o.get("dipc.ok") <= o.get("linux.ok") {
		return fmt.Errorf("dIPC goodput (%v) not above Linux (%v)", o.get("dipc.ok"), o.get("linux.ok"))
	}
	return nil
}

// rack-sharded: a 4-machine ring of 2-CPU machines over NIC links, 8
// closed-loop clients, run on a sim.Cluster.
const rackWindow = 500 * sim.Millisecond

func runRack(seed uint64, setupOnly bool, shards int) *outcome {
	warmup, window := windows(setupOnly, sim.Millis(5), rackWindow)
	r := experiments.RunRack(experiments.RackConfig{Machines: 4, CPUs: 2, Workers: 2, Clients: 8,
		ReqBytes: 4096, Work: sim.Micros(5), Warmup: warmup, Window: window, Seed: seed, Shards: shards})
	o := &outcome{requests: r.Ops, model: map[string]float64{}}
	o.add("ops", float64(r.Ops))
	o.add("ops_per_s", r.Throughput)
	o.add("avg_latency_ps", float64(r.AvgLatency))
	o.add("p50_ps", float64(r.Merged.Hist.P50()))
	o.add("p99_ps", float64(r.Merged.Hist.P99()))
	o.add("max_ps", float64(r.Merged.Hist.Max()))
	for i, a := range r.PerMachine {
		o.add(fmt.Sprintf("m%d.busy_ps", i), float64(a.Breakdown.Busy()))
	}
	addShares(o, "merged", r.Merged.Breakdown)
	o.model["stats.p99_sim_us"] = r.Merged.Hist.P99().Microseconds()
	setModelShares(o, r.Merged.Breakdown)
	return o
}

func rackInvariants(o *outcome) error {
	if o.get("ops") <= 0 {
		return fmt.Errorf("rack completed no requests")
	}
	if o.get("p50_ps") > o.get("p99_ps") || o.get("p99_ps") > o.get("max_ps") {
		return fmt.Errorf("rack latency quantiles out of order")
	}
	return sharesSumToOne(o, "merged")
}

// crosscall-deep: one caller through a chain of 8 dIPC domains under
// the High isolation policy. MeasureCrossCallChain fixes its own engine
// seed; the workload seed varies the number of calls by up to 2%.
const (
	crossDepth = 8
	crossCalls = 300_000
)

func runCrossCall(seed uint64, setupOnly bool) *outcome {
	calls := crossCalls + int(sim.NewRand(seed).Uint64()%(crossCalls/50))
	if setupOnly {
		calls = 1
	}
	r := experiments.MeasureCrossCallChain(crossDepth, calls, true)
	o := &outcome{requests: int64(r.Calls), model: map[string]float64{}}
	o.add("calls", float64(r.Calls))
	o.add("mean_per_call_ps", float64(r.MeanPerOp))
	o.add("apl_hit_rate", r.APLHitRate)
	o.model["codoms.apl_hit_rate"] = r.APLHitRate
	o.model["oltp.calls_per_req"] = crossDepth
	return o
}

func crossCallInvariants(o *outcome) error {
	// Every call of the steady-state chain costs the same simulated
	// time, so the mean is independent of the call count.
	if want := pinnedOutput("crosscall-deep", "mean_per_call_ps"); o.get("mean_per_call_ps") != want {
		return fmt.Errorf("mean per call %v ps, want %v ps at every call count", o.get("mean_per_call_ps"), want)
	}
	if h := o.get("apl_hit_rate"); h <= 0 || h > 1 {
		return fmt.Errorf("APL hit rate %v outside (0, 1]", h)
	}
	return nil
}

// pinnedOutput reads one output of a workload's pin, or NaN, which
// equals nothing.
func pinnedOutput(workload, name string) float64 {
	for _, line := range strings.Split(pins[workload], "\n") {
		if k, v, ok := strings.Cut(line, "="); ok && k == name {
			if f, err := strconv.ParseFloat(v, 64); err == nil {
				return f
			}
		}
	}
	return math.NaN()
}

// sharesSumToOne checks that a breakdown's shares partition its window.
func sharesSumToOne(o *outcome, prefix string) error {
	var sum float64
	for b := stats.Block(0); b < stats.NumBlocks; b++ {
		sum += o.get(fmt.Sprintf("%s.share%d", prefix, int(b)))
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("%s breakdown shares sum to %v", prefix, sum)
	}
	return nil
}
