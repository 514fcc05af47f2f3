// Scenario registrations: every experiment of the paper's evaluation,
// exposed through the first-class scenario API (internal/scenario).
// Each registration wraps the corresponding Run* function, declares its
// typed parameters (the values cmd/dipcbench used to hardcode), builds
// the uniform series model for the canonical JSON encoding, and pins the
// legacy text rendering byte-for-byte (the golden digests depend on it).
//
// Registration order is the execution order of "all" and matches the
// original hand-wired cmd/dipcbench step table.

package experiments

import (
	"fmt"
	"runtime"

	"repro/internal/apps/oltp"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Parameter validators. The underlying Run* functions replace
// non-positive values with defaults; scenarios must reject them instead,
// or the resolved parameters recorded in the canonical JSON (and in
// BENCH_*.json baselines) would misstate what actually ran.
func intAtLeast(key string, v, min int) error {
	if v < min {
		return fmt.Errorf("%s must be >= %d, got %d", key, min, v)
	}
	return nil
}

func intAtMost(key string, v, max int) error {
	if v > max {
		return fmt.Errorf("%s must be <= %d, got %d", key, max, v)
	}
	return nil
}

func intsAtLeast(key string, vs []int, min int) error {
	for _, v := range vs {
		if err := intAtLeast(key, v, min); err != nil {
			return err
		}
	}
	return nil
}

func durationPositive(key string, d sim.Time) error {
	if d <= 0 {
		return fmt.Errorf("%s must be a positive duration, got %s", key, d)
	}
	return nil
}

// firstErr returns the first non-nil error.
func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// oltpThreadsWindow validates the common OLTP parameter pair.
func oltpThreadsWindow(cfg *scenario.Config) error {
	return firstErr(intAtLeast("threads", cfg.Int("threads"), 1),
		durationPositive("window", cfg.Duration("window")))
}

// The derivation helpers compute the effective sweep axes the `full`
// shorthand expands to; checks and runs share them so what is validated
// is exactly what runs.
func fig6MaxPow(cfg *scenario.Config) int {
	maxPow := cfg.Int("maxpow")
	if cfg.Bool("full") && !cfg.Explicit("maxpow") {
		maxPow = 20
	}
	return maxPow
}

func fig7Step(cfg *scenario.Config) int {
	step := cfg.Int("step")
	if cfg.Bool("full") && !cfg.Explicit("step") {
		step = 1
	}
	return step
}

func fig8ThreadsAxisOf(cfg *scenario.Config) []int {
	threads := cfg.Ints("threads")
	if cfg.Bool("full") && !cfg.Explicit("threads") {
		threads = Fig8Threads
	}
	return threads
}

func fig8ScalingCPUsOf(cfg *scenario.Config) []int {
	cpus := cfg.Ints("cpus")
	if cfg.Bool("full") && !cfg.Explicit("cpus") {
		cpus = Fig8ScalingCPUs
	}
	return cpus
}

// Shared parameter specs. The former global -window and -full flags are
// ordinary per-scenario parameters now; cmd/dipcbench still accepts the
// flags and forwards them to every selected scenario that declares the
// key.
func windowParam() scenario.ParamSpec {
	return scenario.Param("window", scenario.Duration, "250ms", "OLTP measurement window (simulated time)")
}

func fullParam(doc string) scenario.ParamSpec {
	return scenario.Param("full", scenario.Bool, "false", doc)
}

func threadsParam(def string) scenario.ParamSpec {
	return scenario.Param("threads", scenario.Int, def, "threads per component")
}

// shardsParam declares the `shards` execution parameter of the heavy
// sweep scenarios. An OLTP machine offers no internal lookahead to shard
// along — dIPC's whole point is erasing latency between its domains — so
// for these scenarios `shards` pins how many host workers run the sweep
// grid's independent cells. It is an ExecParam: it may change wall-clock
// time, never results, and it never appears in canonical output. The
// rack scenario (scenarios_sharded.go) is where `shards` drives a real
// sim.Cluster partition of a single simulation.
func shardsParam() scenario.ParamSpec {
	return scenario.ExecParam("shards", scenario.Int, "1",
		"host workers for the sweep grid (unset: inherit -parallel; 0: one per host core)")
}

// shardWorkersOf maps the `shards` parameter onto a sweep worker count:
// left at its default it inherits the global -parallel setting (0), an
// explicit value pins the pool (1 = the sequential reference path, 0 =
// one worker per host core).
func shardWorkersOf(cfg *scenario.Config) int {
	if !cfg.Explicit("shards") {
		return 0
	}
	if n := cfg.Int("shards"); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// ---- series converters ----

// cpuSlices converts per-CPU breakdowns into the JSON model, dropping
// CPUs that saw no time.
func cpuSlices(per []stats.Breakdown) []scenario.CPUSlice {
	var out []scenario.CPUSlice
	for cpu, bd := range per {
		if bd.Total() == 0 {
			continue
		}
		blocks := make(map[string]float64)
		for b := stats.Block(0); b < stats.NumBlocks; b++ {
			if bd[b] != 0 {
				blocks[b.String()] = bd[b].Nanoseconds()
			}
		}
		out = append(out, scenario.CPUSlice{CPU: cpu, Blocks: blocks})
	}
	return out
}

// measurementSeries converts micro-benchmark bars into one labeled
// series with per-CPU breakdowns.
func measurementSeries(label string, ms []Measurement) scenario.Series {
	s := scenario.Series{Label: label, Unit: "ns"}
	for i, m := range ms {
		s.Points = append(s.Points, scenario.Point{
			Label: m.Label, X: float64(i), Y: m.Mean.Nanoseconds(), PerCPU: cpuSlices(m.PerCPU),
		})
	}
	return s
}

// statsSeries converts stats.Series sweeps (x already numeric).
func statsSeries(unit string, ss []stats.Series) []scenario.Series {
	out := make([]scenario.Series, len(ss))
	for i, s := range ss {
		ps := scenario.Series{Label: s.Label, Unit: unit}
		for j := range s.X {
			ps.Points = append(ps.Points, scenario.Point{X: s.X[j], Y: s.Y[j]})
		}
		out[i] = ps
	}
	return out
}

// labeledPoints builds a series of categorical points.
func labeledPoints(label, unit string, names []string, values []float64) scenario.Series {
	s := scenario.Series{Label: label, Unit: unit}
	for i, n := range names {
		s.Points = append(s.Points, scenario.Point{Label: n, X: float64(i), Y: values[i]})
	}
	return s
}

// fig8ThreadsAxis returns the distinct thread counts in cell order.
func fig8ThreadsAxis(cells []Fig8Cell) []int {
	var out []int
	seen := map[int]bool{}
	for _, c := range cells {
		if !seen[c.Threads] {
			seen[c.Threads] = true
			out = append(out, c.Threads)
		}
	}
	return out
}

var oltpModes = []oltp.Mode{oltp.ModeLinux, oltp.ModeDIPC, oltp.ModeIdeal}

// fig8Series converts one storage configuration into per-mode series.
func fig8Series(r *Fig8Result, storage string) []scenario.Series {
	var out []scenario.Series
	for _, mode := range oltpModes {
		s := scenario.Series{Label: fmt.Sprintf("%s (%s)", mode, storage), Unit: "ops/min"}
		for _, th := range fig8ThreadsAxis(r.Cells) {
			s.Points = append(s.Points, scenario.Point{X: float64(th), Y: r.Throughput(mode, th)})
		}
		out = append(out, s)
	}
	return out
}

// ---- scenario runs ----

func runAnchorsScenario(cfg *scenario.Config) (*scenario.Result, error) {
	f := MeasureFunc()
	s := MeasureSyscall()
	text := fmt.Sprintf("== Scalar anchors (§2.2) ==\n  function call: %s (paper: <2ns)\n  empty syscall: %s (paper: ~34ns)\n",
		f.Mean, s.Mean)
	return &scenario.Result{
		Scenario: "anchors",
		Params:   cfg.ParamStrings(),
		Series:   []scenario.Series{measurementSeries("round trip", []Measurement{f, s})},
		Text:     text,
	}, nil
}

func runTable1Scenario(cfg *scenario.Config) (*scenario.Result, error) {
	r := RunTable1(cfg.Int("bulk"))
	var names []string
	var sw, data, total []float64
	for _, row := range r.Rows {
		names = append(names, row.Arch.String())
		sw = append(sw, row.SwitchCost.Nanoseconds())
		data = append(data, row.DataCost.Nanoseconds())
		total = append(total, row.Total().Nanoseconds())
	}
	return &scenario.Result{
		Scenario: "table1",
		Params:   cfg.ParamStrings(),
		Series: []scenario.Series{
			labeledPoints("switch", "ns", names, sw),
			labeledPoints("data", "ns", names, data),
			labeledPoints("total", "ns", names, total),
		},
		Text: r.Render(),
	}, nil
}

func runFig2Scenario(cfg *scenario.Config) (*scenario.Result, error) {
	r := RunFig2()
	return &scenario.Result{
		Scenario: "fig2",
		Params:   cfg.ParamStrings(),
		Series:   []scenario.Series{measurementSeries("round trip", r.Bars)},
		Text:     r.Render(),
	}, nil
}

func runFig5Scenario(cfg *scenario.Config) (*scenario.Result, error) {
	r := RunFig5()
	vsRPC, vsL4, spread := r.Headlines()
	return &scenario.Result{
		Scenario: "fig5",
		Params:   cfg.ParamStrings(),
		Series:   []scenario.Series{measurementSeries("round trip", r.Bars)},
		Notes: []string{
			fmt.Sprintf("dIPC vs local RPC: %.2fx (paper: 64.12x)", vsRPC),
			fmt.Sprintf("dIPC vs L4: %.2fx (paper: 8.87x)", vsL4),
			fmt.Sprintf("asymmetric policy spread: %.2fx (paper: 8.47x)", spread),
		},
		Text: r.Render(),
	}, nil
}

func runFig6Scenario(cfg *scenario.Config) (*scenario.Result, error) {
	r := RunFig6(Fig6Sizes(fig6MaxPow(cfg)))
	return &scenario.Result{
		Scenario: "fig6",
		Params:   cfg.ParamStrings(),
		Series:   statsSeries("ns added", r.Series),
		Text:     r.Render(),
	}, nil
}

func runFig7Scenario(cfg *scenario.Config) (*scenario.Result, error) {
	step := fig7Step(cfg)
	var sizes []int
	for p := 0; p <= 12; p += step {
		sizes = append(sizes, 1<<p)
	}
	r := RunFig7(sizes)
	var series []scenario.Series
	for _, v := range Fig7Variants {
		lat := r.Latency[v]
		lat.Label = "latency overhead: " + lat.Label
		series = append(series, statsSeries("%", []stats.Series{lat})...)
	}
	for _, v := range Fig7Variants {
		bw := r.BW[v]
		bw.Label = "bandwidth overhead: " + bw.Label
		series = append(series, statsSeries("%", []stats.Series{bw})...)
	}
	return &scenario.Result{
		Scenario: "fig7",
		Params:   cfg.ParamStrings(),
		Series:   series,
		Text:     r.Render(),
	}, nil
}

func runFig1Scenario(cfg *scenario.Config) (*scenario.Result, error) {
	r := RunFig1(cfg.Duration("window"))
	names := []string{"Linux", "Ideal (unsafe)"}
	results := []*oltp.Result{r.Linux, r.Ideal}
	lat := make([]float64, len(results))
	user := make([]float64, len(results))
	kern := make([]float64, len(results))
	idle := make([]float64, len(results))
	for i, res := range results {
		lat[i] = res.AvgLatency.Nanoseconds()
		user[i] = 100 * res.UserShare()
		kern[i] = 100 * res.KernelShare()
		idle[i] = 100 * res.IdleShare()
	}
	return &scenario.Result{
		Scenario: "fig1",
		Params:   cfg.ParamStrings(),
		Series: []scenario.Series{
			labeledPoints("avg latency", "ns", names, lat),
			labeledPoints("user share", "%", names, user),
			labeledPoints("kernel share", "%", names, kern),
			labeledPoints("idle share", "%", names, idle),
		},
		Notes: []string{fmt.Sprintf("IPC overhead: %.2fx (paper: 1.92x)", r.Speedup())},
		Text:  r.Render(),
	}, nil
}

func runFig8Scenario(cfg *scenario.Config) (*scenario.Result, error) {
	threads := fig8ThreadsAxisOf(cfg)
	window := cfg.Duration("window")
	workers := shardWorkersOf(cfg)
	onDisk := RunFig8Workers(false, threads, window, workers)
	inMem := RunFig8Workers(true, threads, window, workers)
	series := append(fig8Series(onDisk, "on-disk"), fig8Series(inMem, "in-memory")...)
	return &scenario.Result{
		Scenario: "fig8",
		Params:   cfg.ParamStrings(),
		Series:   series,
		Text:     onDisk.Render() + "\n" + inMem.Render(),
	}, nil
}

func runFig8ScalingScenario(cfg *scenario.Config) (*scenario.Result, error) {
	cpus := fig8ScalingCPUsOf(cfg)
	r := RunFig8ScalingWorkers(cpus, cfg.Int("threads"), cfg.Duration("window"), shardWorkersOf(cfg))
	var series []scenario.Series
	for _, mode := range oltpModes {
		s := scenario.Series{Label: mode.String(), Unit: "ops/min"}
		for _, nc := range cpus {
			s.Points = append(s.Points, scenario.Point{X: float64(nc), Y: r.Throughput(mode, nc)})
		}
		series = append(series, s)
	}
	return &scenario.Result{
		Scenario: "fig8scaling",
		Params:   cfg.ParamStrings(),
		Series:   series,
		Notes: []string{fmt.Sprintf("scaling across the sweep: Linux %.2fx, dIPC %.2fx, Ideal %.2fx",
			r.ScalingFactor(oltp.ModeLinux), r.ScalingFactor(oltp.ModeDIPC), r.ScalingFactor(oltp.ModeIdeal))},
		Text: r.Render(),
	}, nil
}

func runSensitivityScenario(cfg *scenario.Config) (*scenario.Result, error) {
	r := RunSensitivity(cfg.Int("threads"), cfg.Duration("window"))
	names := []string{
		"calls/op", "effective call cost [ns]", "headroom/op [ns]",
		"break-even slowdown [x]", "worst-case cap overhead [%]",
		"speedup with cap overhead [x]", "measured speedup [x]",
	}
	values := []float64{
		r.CallsPerOp, r.AvgCallCost.Nanoseconds(), r.HeadroomPerOp.Nanoseconds(),
		r.BreakEvenX, r.CapOverheadPct, r.SpeedupWithCap, r.Speedup,
	}
	return &scenario.Result{
		Scenario: "sensitivity",
		Params:   cfg.ParamStrings(),
		Series:   []scenario.Series{labeledPoints("metrics", "", names, values)},
		Text:     r.Render(),
	}, nil
}

func runTLSAblationScenario(cfg *scenario.Config) (*scenario.Result, error) {
	r := RunTLSAblation()
	names := []string{"Low base", "Low no-TLS", "High base", "High no-TLS"}
	values := []float64{
		r.LowBase.Nanoseconds(), r.LowNoTLS.Nanoseconds(),
		r.HighBase.Nanoseconds(), r.HighNoTLS.Nanoseconds(),
	}
	return &scenario.Result{
		Scenario: "ablation-tls",
		Params:   cfg.ParamStrings(),
		Series:   []scenario.Series{labeledPoints("round trip", "ns", names, values)},
		Notes: []string{
			fmt.Sprintf("Low speedup without TLS switch: %.2fx", r.LowSpeedup()),
			fmt.Sprintf("High speedup without TLS switch: %.2fx", r.HighSpeedup()),
		},
		Text: r.Render(),
	}, nil
}

func runSharedPTAblationScenario(cfg *scenario.Config) (*scenario.Result, error) {
	r := RunSharedPTAblation(cfg.Int("threads"), cfg.Duration("window"))
	names := []string{"shared table", "private table"}
	values := []float64{r.SharedPT.Throughput, r.PrivatePT.Throughput}
	return &scenario.Result{
		Scenario: "ablation-sharedpt",
		Params:   cfg.ParamStrings(),
		Series:   []scenario.Series{labeledPoints("throughput", "ops/min", names, values)},
		Notes:    []string{fmt.Sprintf("private-table penalty: %.1f%%", 100*r.Penalty())},
		Text:     r.Render(),
	}, nil
}

func runStealAblationScenario(cfg *scenario.Config) (*scenario.Result, error) {
	r := RunStealAblation(cfg.Int("threads"), cfg.Duration("window"))
	names := []string{"with steal", "no steal"}
	return &scenario.Result{
		Scenario: "ablation-steal",
		Params:   cfg.ParamStrings(),
		Series: []scenario.Series{
			labeledPoints("throughput", "ops/min", names,
				[]float64{r.WithSteal.Throughput, r.NoSteal.Throughput}),
			labeledPoints("idle share", "%", names,
				[]float64{100 * r.WithSteal.IdleShare(), 100 * r.NoSteal.IdleShare()}),
		},
		Text: r.Render(),
	}, nil
}

func init() {
	scenario.Register(scenario.New("anchors",
		"Scalar anchors (§2.2): function call and empty syscall",
		nil, runAnchorsScenario))
	scenario.Register(scenario.NewChecked("table1",
		"Table 1: round-trip domain switch + bulk data across architectures",
		[]scenario.ParamSpec{
			scenario.Param("bulk", scenario.Int, "4096", "bulk data bytes per round trip"),
		},
		func(cfg *scenario.Config) error { return intAtLeast("bulk", cfg.Int("bulk"), 0) },
		runTable1Scenario))
	scenario.Register(scenario.New("fig2",
		"Figure 2: time breakdown of IPC primitives (1-byte argument)",
		nil, runFig2Scenario))
	scenario.Register(scenario.New("fig5",
		"Figure 5: performance of synchronous calls (1-byte argument)",
		nil, runFig5Scenario))
	scenario.Register(scenario.NewChecked("fig6",
		"Figure 6: added time over a function call by argument size",
		[]scenario.ParamSpec{
			scenario.Param("maxpow", scenario.Int, "14", "largest argument size as a power of two"),
			fullParam("sweep the paper's full 2^0..2^20 axis"),
		},
		func(cfg *scenario.Config) error {
			if mp := fig6MaxPow(cfg); mp < 0 || mp > 30 {
				return fmt.Errorf("maxpow must be in 0..30, got %d", mp)
			}
			return nil
		},
		runFig6Scenario))
	scenario.Register(scenario.NewChecked("fig7",
		"Figure 7: Infiniband driver isolation overheads (latency and bandwidth)",
		[]scenario.ParamSpec{
			scenario.Param("step", scenario.Int, "4", "stride over the 2^0..2^12 size exponents"),
			fullParam("run every power-of-two size (stride 1)"),
		},
		func(cfg *scenario.Config) error { return intAtLeast("step", fig7Step(cfg), 1) },
		runFig7Scenario))
	scenario.Register(scenario.NewChecked("fig1",
		"Figure 1: OLTP time breakdown, Linux vs Ideal",
		[]scenario.ParamSpec{windowParam()},
		func(cfg *scenario.Config) error { return durationPositive("window", cfg.Duration("window")) },
		runFig1Scenario))
	scenario.Register(scenario.NewChecked("fig8",
		"Figure 8: OLTP throughput, modes x concurrency, on-disk and in-memory",
		[]scenario.ParamSpec{
			scenario.Param("threads", scenario.IntList, "4,16,64", "concurrency axis (threads per component)"),
			windowParam(),
			fullParam("run the paper's full 4..512 thread axis"),
			shardsParam(),
		},
		func(cfg *scenario.Config) error {
			return firstErr(intsAtLeast("threads", fig8ThreadsAxisOf(cfg), 1),
				durationPositive("window", cfg.Duration("window")),
				intAtLeast("shards", cfg.Int("shards"), 0))
		},
		runFig8Scenario))
	scenario.Register(scenario.NewChecked("fig8scaling",
		"Figure 8 extension: OLTP throughput vs simulated cores",
		[]scenario.ParamSpec{
			scenario.Param("cpus", scenario.IntList, "1,2,4", "simulated core counts"),
			threadsParam("16"),
			windowParam(),
			fullParam("run the extended 1..8 core axis"),
			shardsParam(),
		},
		func(cfg *scenario.Config) error {
			return firstErr(intsAtLeast("cpus", fig8ScalingCPUsOf(cfg), 1), oltpThreadsWindow(cfg),
				intAtLeast("shards", cfg.Int("shards"), 0))
		},
		runFig8ScalingScenario))
	scenario.Register(scenario.NewChecked("sensitivity",
		"Sensitivity analysis (§7.5): call-cost and capability-traffic headroom",
		[]scenario.ParamSpec{threadsParam("16"), windowParam()},
		oltpThreadsWindow, runSensitivityScenario))
	scenario.Register(scenario.New("ablation-tls",
		"Ablation: TLS segment switch cost (§6.1.2, §7.2)",
		nil, runTLSAblationScenario))
	scenario.Register(scenario.NewChecked("ablation-sharedpt",
		"Ablation: shared page table / global VA space (§6.1.3)",
		[]scenario.ParamSpec{threadsParam("16"), windowParam()},
		oltpThreadsWindow, runSharedPTAblationScenario))
	scenario.Register(scenario.NewChecked("ablation-steal",
		"Ablation: scheduler idle stealing under IPC load",
		[]scenario.ParamSpec{threadsParam("16"), windowParam()},
		oltpThreadsWindow, runStealAblationScenario))
	scenario.RegisterGroup("ablations",
		"the three ablation studies",
		"ablation-tls", "ablation-sharedpt", "ablation-steal")
}
