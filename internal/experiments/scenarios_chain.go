// The microservice chain-depth sweep: the worked example of adding a
// workload through the public scenario API alone. The paper's §7.5
// argues that dIPC's advantage compounds as cross-domain call chains
// deepen, but no figure sweeps the depth axis; this scenario chains N
// service tiers behind a gateway over the same three transports as
// Fig. 8 (Linux sockets, dIPC proxies, Ideal function calls) and sweeps
// N. It is one self-registering file: no cmd/dipcbench dispatch code,
// result structs or renderers were edited to add it.

package experiments

import (
	"fmt"

	"repro/internal/apps/oltp"
	"repro/internal/scenario"
)

func runChainScenario(cfg *scenario.Config) (*scenario.Result, error) {
	depths := cfg.Ints("depth")
	threads := cfg.Int("threads")
	window := cfg.Duration("window")
	work := cfg.Duration("work")

	// One sweep point per (mode, depth) cell; every cell builds its own
	// engine and machine, so the grid fans out over the worker pool.
	// The chain runs fault-free: a nil plan.
	cells := sweepWorkers(len(oltpModes)*len(depths), shardWorkersOf(cfg), func(i int) *oltp.ChainFaultsResult {
		mode, depth := oltpModes[i/len(depths)], depths[i%len(depths)]
		return oltp.RunChainFaults(oltp.ChainFaultsConfig{ChainConfig: oltp.ChainConfig{
			Mode: mode, Depth: depth, Threads: threads,
			Work: work, Window: window, Seed: 5,
		}})
	})
	at := func(mode, depth int) *oltp.ChainFaultsResult { return cells[mode*len(depths)+depth] }
	// Throughput in operations per minute.
	tputOf := func(r *oltp.ChainFaultsResult) float64 { return r.Goodput * 60 }

	res := &scenario.Result{Scenario: "chain", Params: cfg.ParamStrings()}
	for mi, mode := range oltpModes {
		tput := scenario.Series{Label: mode.String(), Unit: "ops/min"}
		lat := scenario.Series{Label: mode.String() + " latency", Unit: "us"}
		for di, d := range depths {
			r := at(mi, di)
			tput.Points = append(tput.Points, scenario.Point{X: float64(d), Y: tputOf(r)})
			lat.Points = append(lat.Points, scenario.Point{X: float64(d), Y: r.AvgLatency.Microseconds()})
		}
		res.Series = append(res.Series, tput)
		res.Series = append(res.Series, lat)
	}
	// Headline: how the dIPC advantage moves across the sweep.
	deepest := len(depths) - 1
	lin, dip, ide := at(0, deepest), at(1, deepest), at(2, deepest)
	if tputOf(lin) > 0 && tputOf(ide) > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"depth %d: dIPC %.2fx over Linux, %.1f%% of Ideal, %.1f calls/op",
			depths[deepest], tputOf(dip)/tputOf(lin),
			100*tputOf(dip)/tputOf(ide), dip.CallsPerOp))
	}
	return res, nil
}

func init() {
	scenario.Register(scenario.NewChecked("chain",
		"Microservice chain-depth sweep (§7.5 extension): N chained tiers over Linux / dIPC / Ideal transports",
		[]scenario.ParamSpec{
			scenario.Param("depth", scenario.IntList, "1,2,4,8", "chain depths to sweep (service tiers behind the gateway)"),
			scenario.Param("threads", scenario.Int, "8", "gateway workers (and per-tier workers on Linux)"),
			scenario.Param("work", scenario.Duration, "20us", "application work per tier per request"),
			scenario.Param("window", scenario.Duration, "100ms", "measurement window (simulated time)"),
			shardsParam(),
		},
		func(cfg *scenario.Config) error {
			return firstErr(intsAtLeast("depth", cfg.Ints("depth"), 1),
				intAtLeast("threads", cfg.Int("threads"), 1),
				durationPositive("window", cfg.Duration("window")),
				durationPositive("work", cfg.Duration("work")),
				intAtLeast("shards", cfg.Int("shards"), 0))
		},
		runChainScenario))
}
