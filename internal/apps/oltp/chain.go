package oltp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/faults"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Microservice chain: a request enters a gateway tier and is forwarded
// through a chain of N service tiers, each adding its own application
// work, over the same three transports as Fig. 8 — UNIX sockets between
// per-tier worker pools (Linux), dIPC proxies executing in place
// (dIPC), and plain function calls (Ideal). The paper's §7.5 argues
// dIPC's advantage compounds as call chains deepen; no figure sweeps
// the depth axis, so this wiring (driven by the `chain` scenario, the
// chaos and overload scenarios, and each replica of the replicated
// rack) extends the evaluation along it.

// ChainConfig is one chain run.
type ChainConfig struct {
	Mode     Mode
	Depth    int      // service tiers behind the gateway (>= 1)
	Threads  int      // gateway workers; also workers per tier (Linux)
	CPUs     int      // simulated CPU count (defaults to 4)
	Clients  int      // concurrent closed-loop clients (defaults to Threads)
	Work     sim.Time // per-tier application work per request
	ReqBytes int      // request/response payload bytes per hop
	Warmup   sim.Time
	Window   sim.Time
	Seed     uint64
	// Cost overrides the machine cost model.
	Cost *cost.Params
}

// chainSpec describes one tier chain to buildChainTiers. Fault plans
// target its names: the front process is front, tier j is
// "<prefix>svc<j>" with socket workers "<tier>-<w>", and the hop into
// tier j draws from fault site "<prefix>hop<j>".
type chainSpec struct {
	mode     Mode
	depth    int
	threads  int      // socket workers per tier (Linux)
	work     sim.Time // per-tier application work per request
	reqBytes int
	plan     *faults.Plan
	deadline sim.Time // what a dropped call costs its caller
	front    string
	prefix   string
	// settle, when set, is the single-machine engine, run dry after
	// each dIPC init so a tier publishes before its caller imports.
	// Nil boots on fixed replicaBootSlot slots instead, which is what a
	// cluster can do: its clock advances all shards together.
	settle *sim.Engine
}

// chainPath names tier i's published dIPC entry.
func chainPath(i int) string { return fmt.Sprintf("/run/chain-svc%d.sock", i) }

// buildChainTiers wires the per-mode tier chain behind a new front
// process: processes, workers, transports, fault sites, and injector
// process targets. Each hop's transport is passed through wrap (hop
// index 1..depth) so callers choose the resilience stack (Retrier,
// Breaker). A tier whose downstream call fails answers with an in-band
// RemoteError. Once every init thread has run (on return when settle
// is set, after the last boot slot otherwise), every element of
// transports is populated.
func buildChainTiers(d *chainSpec, m *kernel.Machine, prm *Params,
	inj *faults.Injector, wrap func(Transport, int) Transport,
) (front *kernel.Process, rt *core.Runtime, transports []Transport) {
	tier := func(i int) string { return fmt.Sprintf("%ssvc%d", d.prefix, i) }
	site := func(i int) *faults.CallSite {
		return d.plan.Site(fmt.Sprintf("%shop%d", d.prefix, i), d.deadline)
	}

	transports = make([]Transport, d.depth)
	handler := func(i int) Handler {
		return func(t *kernel.Thread, op string, payload any) (any, int) {
			t.ExecUser(d.work)
			if i < d.depth {
				if _, err := transports[i].TryCall(t, "hop", payload, d.reqBytes); err != nil {
					return &RemoteError{Tier: tier(i + 1), Err: err}, d.reqBytes
				}
			}
			return payload, d.reqBytes
		}
	}

	switch d.mode {
	case ModeIdeal:
		// All tiers co-located in one (unsafe) process.
		front = m.NewProcess(d.front)
		inj.Proc(d.front, m, front)
		for i := 1; i <= d.depth; i++ {
			transports[i-1] = wrap(&DirectTransport{H: handler(i), Faults: site(i)}, i)
		}

	case ModeLinux:
		// One process and one socket worker pool per tier.
		front = m.NewProcess(d.front)
		front.WorkingSet = 48 << 10
		inj.Proc(d.front, m, front)
		for i := 1; i <= d.depth; i++ {
			proc := m.NewProcess(tier(i))
			proc.WorkingSet = 96 << 10
			inj.Proc(proc.Name, m, proc)
			st := NewSockTransport(prm, handler(i))
			st.Proc = proc
			st.Faults = site(i)
			transports[i-1] = wrap(st, i)
			for w := 0; w < d.threads; w++ {
				m.Spawn(proc, fmt.Sprintf("%s-%d", proc.Name, w), nil, st.Worker)
			}
		}

	case ModeDIPC:
		// dIPC processes bridged by proxies: the front thread executes
		// the whole chain in place, so the service tiers need no worker
		// pools. Tiers distrust their callers (microservice style), so
		// every entry requests callee-side protection; importers trust
		// their callees and request none.
		rt = core.NewRuntime(m)
		rt.FoldStubs = true
		front = rt.NewProcess(d.front)
		inj.Proc(d.front, m, front)
		svc := make([]*kernel.Process, d.depth+1)
		for i := 1; i <= d.depth; i++ {
			svc[i] = rt.NewProcess(tier(i))
			inj.Proc(svc[i].Name, m, svc[i])
		}
		calleePolicy := core.RegConfidentiality | core.StackConfIntegrity | core.DCSConfIntegrity
		sig := core.Signature{InRegs: 2, OutRegs: 1}
		// importHop resolves tier i's entry as the transport of hop i.
		importHop := func(t *kernel.Thread, i int) {
			ents, err := rt.MustImport(t, chainPath(i), []core.EntryDesc{{Name: "hop", Sig: sig}})
			if err != nil {
				panic(err)
			}
			tr := NewDIPCTransport(map[string]*core.ImportedEntry{"hop": ents[0]})
			tr.Faults = site(i)
			transports[i-1] = wrap(tr, i)
		}
		// boot starts one init thread. Inits run back to front: tier i
		// imports tier i+1's entry before publishing its own, so every
		// import finds its target — settled one at a time, or at slot
		// depth-i of the cluster boot schedule.
		boot := func(p *kernel.Process, name string, slot int, init func(t *kernel.Thread)) {
			m.Spawn(p, name+"-init", nil, func(t *kernel.Thread) {
				if d.settle == nil {
					t.SleepFor(sim.Time(slot) * replicaBootSlot)
				}
				mustEnter(rt, t)
				init(t)
			})
			if d.settle != nil {
				d.settle.Run()
			}
		}
		for i := d.depth; i >= 1; i-- {
			i := i
			boot(svc[i], svc[i].Name, d.depth-i, func(t *kernel.Thread) {
				if i < d.depth {
					importHop(t, i+1)
				}
				eh, err := rt.EntryRegister(t, rt.DomDefault(t), []core.EntryDesc{
					{Name: "hop", Fn: handlerEntry(handler(i), "hop"), Sig: sig, Policy: calleePolicy},
				})
				if err != nil {
					panic(err)
				}
				if err := rt.Publish(t, chainPath(i), eh); err != nil {
					panic(err)
				}
			})
		}
		boot(front, d.front, d.depth, func(t *kernel.Thread) { importHop(t, 1) })

	default:
		panic("oltp: unknown chain mode")
	}
	return front, rt, transports
}

// chainMachine is one machine running the tier chain behind a gateway,
// every hop behind a Retrier: the set-up shared by the closed-loop
// (RunChainFaults) and open-loop (RunOpenLoop) chain runners. Process
// targets are the front ("gateway", "chain-app" for Ideal) and
// "svc1".."svcN"; the machine target is "m0"; per-call fault sites are
// "hop1".."hopN".
type chainMachine struct {
	cfg        *ChainFaultsConfig
	eng        *sim.Engine
	m          *kernel.Machine
	gw         *Gateway
	inj        *faults.Injector
	rel        *stats.Reliability // the Retriers' attempt-level counters
	breakers   []*Breaker
	front      *kernel.Process
	rt         *core.Runtime
	transports []Transport
}

// newChainMachine builds the machine, its gateway and the tier chain;
// brc, when non-nil, puts a circuit breaker inside every hop's Retrier.
func newChainMachine(cfg *ChainFaultsConfig, gwc GatewayConfig, brc *BreakerConfig) *chainMachine {
	c := &chainMachine{cfg: cfg, eng: sim.NewEngine(cfg.Seed + 1), rel: &stats.Reliability{}}
	c.m = kernel.NewMachine(c.eng, cfg.Cost, cfg.CPUs)
	prm := DefaultParams()
	c.gw = NewGateway(prm, gwc)
	c.inj = faults.NewInjector(cfg.Plan)
	c.inj.Machine("m0", c.m)

	wrap := func(tr Transport, hop int) Transport {
		if brc != nil {
			br := NewBreaker(tr, *brc)
			c.breakers = append(c.breakers, br)
			tr = br
		}
		return &Retrier{Inner: tr, Policy: cfg.Retry, Rel: c.rel,
			Jitter: retryJitter(cfg.Retry, cfg.Plan, hop)}
	}
	front := "gateway"
	if cfg.Mode == ModeIdeal {
		front = "chain-app"
	}
	c.front, c.rt, c.transports = buildChainTiers(&chainSpec{
		mode: cfg.Mode, depth: cfg.Depth, threads: cfg.Threads, work: cfg.Work,
		reqBytes: cfg.ReqBytes, plan: cfg.Plan, deadline: cfg.Retry.Deadline,
		front: front, settle: c.eng,
	}, c.m, prm, c.inj, wrap)
	return c
}

// serve schedules the fault plan's events on the sim clock and starts
// the gateway worker pool, which drives the chain and reports each
// outcome in-band. A plan naming a target this mode doesn't have (e.g.
// killing "svc2" under Ideal, whose tiers share one process) is a
// scenario bug — fail loud.
func (c *chainMachine) serve() {
	if err := c.inj.Install(); err != nil {
		panic(fmt.Sprintf("oltp: chain plan: %v", err))
	}
	cfg := c.cfg
	for w := 0; w < cfg.Threads; w++ {
		c.m.Spawn(c.front, fmt.Sprintf("gw-%d", w), nil, func(t *kernel.Thread) {
			if c.rt != nil {
				mustEnter(c.rt, t)
			}
			for {
				req := c.gw.Recv(t)
				t.ExecUser(cfg.Work)
				_, err := c.transports[0].TryCall(t, "hop", nil, cfg.ReqBytes)
				c.gw.Reply(t, req, err)
			}
		})
	}
}

// measure runs through the warmup and the window and returns the
// window's delta of the attempt-level counters and its machine
// breakdown.
func (c *chainMachine) measure() (stats.Reliability, stats.Breakdown) {
	measStart := c.cfg.Warmup
	var baseRel stats.Reliability
	var baseBd stats.Breakdown
	c.eng.At(measStart, func() { baseRel = *c.rel; baseBd = c.m.Snapshot() })
	c.eng.RunUntil(measStart + c.cfg.Window)
	return c.rel.Sub(baseRel), c.m.Snapshot().Sub(baseBd)
}

// calls is the total of cross-tier calls made so far.
func (c *chainMachine) calls() uint64 {
	var n uint64
	for _, tr := range c.transports {
		n += tr.Calls()
	}
	return n
}
