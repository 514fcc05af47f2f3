// The rack scenario: the first genuinely multi-machine workload, and
// the showcase for the sharded engine. A ring of machines passes
// requests over NIC links — closed-loop clients on machine 0 inject a
// request that hops through every other machine (each hop costs wire
// flight time plus application work) and completes back at machine 0.
// Machines are the unit of placement (kernel.PlaceMachines): with
// shards>1 the machines run on different host cores in parallel inside
// the NIC's lookahead window, and the determinism contract of
// sim.Cluster guarantees the result digest is byte-identical at every
// shard count. The `shards` parameter is execution-only, so that
// invariance holds by construction in the canonical output and is
// checked for the simulated quantities by sharded_golden_test.go.

package experiments

import (
	"fmt"

	"repro/internal/apps/netpipe"
	"repro/internal/apps/oltp"
	"repro/internal/cost"
	"repro/internal/kernel"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
)

// RackConfig parameterizes one rack run.
type RackConfig struct {
	Machines int // ring size (>= 1)
	CPUs     int // cores per machine
	Workers  int // service threads per non-client machine
	Clients  int // closed-loop clients on machine 0
	ReqBytes int // request size on the wire
	Work     sim.Time
	Window   sim.Time // measurement window (after warmup)
	Warmup   sim.Time
	Seed     uint64
	Shards   int // engine shards (<= 0: one per host core)
}

// RackResult is one rack run's measurements.
type RackResult struct {
	Ops        int64
	Throughput float64 // completed ops per second of simulated time
	AvgLatency sim.Time
	PerMachine []*stats.Accumulator // machine order; ops land on machine 0
	Merged     stats.Accumulator
}

// RunRack builds the ring on a sim.Cluster and runs warmup + window.
//
// The model follows the cluster's ownership discipline: each machine
// (and the clients, which live on machine 0's shard) is one part; parts
// interact only through the ring links; the clients draw think time
// from their own Rand streams seeded by client index; and links are
// created in fixed machine order regardless of the shard count.
func RunRack(c RackConfig) *RackResult {
	cl := sim.NewCluster(c.Seed, c.Shards)
	p := cost.Default()
	ms := kernel.PlaceMachines(cl, p, c.Machines, c.CPUs)

	nics := make([]*netpipe.NIC, c.Machines)
	ings := make([]*oltp.Inbox, c.Machines)
	for i, m := range ms {
		nics[i] = netpipe.NewNIC(m)
		ings[i] = &oltp.Inbox{}
	}

	accs := make([]*stats.Accumulator, c.Machines)
	for i := range accs {
		accs[i] = &stats.Accumulator{}
	}
	waiters := make([]sim.Waiter, c.Clients)
	measuring := false

	// The ring links, in machine order (determinism rule 3). Each link's
	// lookahead is the NIC's declared minimum delivery delay; every send
	// pays the full FlightTime of the request size, which can never be
	// below it.
	outs := make([]*sim.Link, c.Machines)
	for i := 0; i < c.Machines; i++ {
		next := (i + 1) % c.Machines
		l := cl.Connect(cl.Shard(i%cl.Shards()), cl.Shard(next%cl.Shards()), nics[i].Lookahead())
		if next == 0 {
			// Full circle: the request ID is the client index; complete
			// the operation by waking its waiter.
			l.SetHandler(func(v uint64) { waiters[v].WakeU64(0, v) })
		} else {
			ing := ings[next]
			l.SetHandler(func(v uint64) { ing.Submit(v) })
		}
		outs[i] = l
	}

	// Service workers on machines 1..M-1: receive, compute, forward.
	for mi := 1; mi < c.Machines; mi++ {
		mi := mi
		proc := ms[mi].NewProcess(fmt.Sprintf("svc%d", mi))
		for w := 0; w < c.Workers; w++ {
			ms[mi].Spawn(proc, fmt.Sprintf("m%d.w%d", mi, w), nil, func(t *kernel.Thread) {
				for {
					id := ings[mi].Recv(t)
					t.ExecUser(c.Work)
					outs[mi].SendU64(nics[mi].FlightTime(c.ReqBytes), id)
				}
			})
		}
	}

	// Closed-loop clients on machine 0's shard, one explicit Rand stream
	// each (determinism rule 2 — never the shard engine's).
	//dipcvet:shard-ok wiring phase: clients spawn onto shard 0's engine before the run
	eng0 := cl.Shard(0).Engine()
	for ci := 0; ci < c.Clients; ci++ {
		ci := ci
		rng := sim.NewRand(c.Seed + 0x9e3779b97f4a7c15*uint64(ci+1))
		eng0.Spawn(fmt.Sprintf("client%d", ci), sim.Time(ci), func(sp *sim.Proc) {
			for {
				start := sp.Now()
				waiters[ci] = sp.PrepareWait()
				outs[0].SendU64(nics[0].FlightTime(c.ReqBytes), uint64(ci))
				sp.WaitU64()
				if measuring {
					accs[0].AddOp(sp.Now() - start)
				}
				sp.Sleep(rng.Duration(0, 2*sim.Microsecond))
			}
		})
	}

	cl.RunUntil(c.Warmup)
	base := make([]stats.Breakdown, c.Machines)
	for i, m := range ms {
		base[i] = m.Snapshot()
	}
	measuring = true
	cl.RunUntil(c.Warmup + c.Window)

	for i, m := range ms {
		accs[i].Breakdown = m.Snapshot().Sub(base[i])
	}
	merged := stats.MergeAll(accs)
	return &RackResult{
		Ops:        merged.Ops,
		Throughput: float64(merged.Ops) / c.Window.Seconds(),
		AvgLatency: merged.AvgLatency(),
		PerMachine: accs,
		Merged:     merged,
	}
}

func runRackScenario(cfg *scenario.Config) (*scenario.Result, error) {
	r := RunRack(RackConfig{
		Machines: cfg.Int("machines"),
		CPUs:     cfg.Int("cpus"),
		Workers:  cfg.Int("workers"),
		Clients:  cfg.Int("clients"),
		ReqBytes: cfg.Int("reqbytes"),
		Work:     cfg.Duration("work"),
		Window:   cfg.Duration("window"),
		Warmup:   cfg.Duration("warmup"),
		Seed:     5,
		Shards:   cfg.Int("shards"),
	})

	res := &scenario.Result{Scenario: "rack", Params: cfg.ParamStrings()}
	tput := scenario.Series{Label: "throughput", Unit: "ops/s"}
	tput.Points = append(tput.Points, scenario.Point{X: float64(cfg.Int("machines")), Y: r.Throughput})
	lat := scenario.Series{Label: "avg latency", Unit: "us"}
	lat.Points = append(lat.Points, scenario.Point{X: float64(cfg.Int("machines")), Y: r.AvgLatency.Microseconds()})
	busy := scenario.Series{Label: "busy share per machine", Unit: "%"}
	for i, a := range r.PerMachine {
		share := 0.0
		if tot := a.Breakdown.Total(); tot > 0 {
			share = 100 * float64(a.Breakdown.Busy()) / float64(tot)
		}
		busy.Points = append(busy.Points, scenario.Point{X: float64(i), Y: share})
	}
	res.Series = append(res.Series, tput, lat, busy)
	res.Notes = append(res.Notes, fmt.Sprintf(
		"%d ops across a %d-machine ring: %.0f ops/s, %.1fus avg latency",
		r.Ops, cfg.Int("machines"), r.Throughput, r.AvgLatency.Microseconds()))
	return res, nil
}

func clusterShardsParam() scenario.ParamSpec {
	return scenario.ExecParam("shards", scenario.Int, "1",
		"engine shards for the one clustered simulation (1: sequential reference; 0: one per host core)")
}

func init() {
	scenario.Register(scenario.NewChecked("rack",
		"Multi-machine ring over NIC links: the sharded-engine workload (machines placed round-robin on shards)",
		[]scenario.ParamSpec{
			scenario.Param("machines", scenario.Int, "4", "machines in the ring (machine 0 hosts the clients)"),
			scenario.Param("cpus", scenario.Int, "2", "cores per machine"),
			scenario.Param("workers", scenario.Int, "2", "service threads per non-client machine"),
			scenario.Param("clients", scenario.Int, "8", "closed-loop clients on machine 0"),
			scenario.Param("reqbytes", scenario.Int, "4096", "request size on the wire"),
			scenario.Param("work", scenario.Duration, "5us", "application work per hop"),
			scenario.Param("window", scenario.Duration, "40ms", "measurement window (simulated time)"),
			scenario.Param("warmup", scenario.Duration, "5ms", "warmup before measurement"),
			clusterShardsParam(),
		},
		func(cfg *scenario.Config) error {
			return firstErr(intAtLeast("machines", cfg.Int("machines"), 1),
				intAtLeast("cpus", cfg.Int("cpus"), 1),
				intAtLeast("workers", cfg.Int("workers"), 1),
				intAtLeast("clients", cfg.Int("clients"), 1),
				intAtLeast("reqbytes", cfg.Int("reqbytes"), 1),
				durationPositive("work", cfg.Duration("work")),
				durationPositive("window", cfg.Duration("window")),
				durationPositive("warmup", cfg.Duration("warmup")),
				intAtLeast("shards", cfg.Int("shards"), 0))
		},
		runRackScenario))
}
