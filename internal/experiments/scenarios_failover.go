// The failover scenario family: rack-scale replication under the same
// deterministic fault plans the chaos family uses. Each scenario runs
// the replicated tier chain (oltp.RunReplicated) — N replicas on
// distinct machines behind NIC links, a sim-time health detector, and
// a routing policy — and reports availability, failover counts,
// detector quality (false positives, detection latency) and hedging
// outcomes. Everything fires on the sim clock, so the digests are
// pinned like any other golden and byte-identical at any shard count.

package experiments

import (
	"fmt"

	"repro/internal/apps/oltp"
	"repro/internal/faults"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// failoverBreaker is the per-hop circuit breaker the failover scenarios
// wire inside every replica: small window and short cooldown so a
// half-dead replica fast-fails into an immediate failover within a few
// requests.
func failoverBreaker() *oltp.BreakerConfig {
	return &oltp.BreakerConfig{Window: 8, Threshold: 0.5, Cooldown: sim.Millis(1), Probes: 1}
}

// failoverRetry builds the client retry policy the failover scenarios
// share.
func failoverRetry(cfg *scenario.Config) faults.RetryPolicy {
	return faults.RetryPolicy{
		Deadline:   cfg.Duration("deadline"),
		MaxRetries: cfg.Int("retries"),
		Backoff:    cfg.Duration("backoff"),
		MaxBackoff: 8 * cfg.Duration("backoff"),
	}
}

// failoverBase assembles the replicated-rack config shared by the
// failover scenarios from their common parameters.
func failoverBase(cfg *scenario.Config, mode oltp.Mode) oltp.ReplicatedConfig {
	return oltp.ReplicatedConfig{
		Mode:     mode,
		Replicas: cfg.Int("replicas"),
		Depth:    cfg.Int("depth"),
		Threads:  cfg.Int("threads"),
		Clients:  cfg.Int("clients"),
		Work:     cfg.Duration("work"),
		Warmup:   cfg.Duration("warmup"),
		Window:   cfg.Duration("window"),
		Seed:     5,
		Shards:   cfg.Int("shards"),
		Retry:    failoverRetry(cfg),
	}
}

// breakerStateOrd encodes breaker states for the timeline series: the
// Y axis of a "breaker state" series steps between these levels.
var breakerStateOrd = map[string]float64{"closed": 0, "half-open": 1, "open": 2}

// breakerSeries renders each replica's breaker transition timeline as a
// step series (X: sim time in us, Y: state level). Replicas whose
// breakers never moved contribute nothing.
func breakerSeries(prefix string, breakers [][]oltp.BreakerTransition) []scenario.Series {
	var out []scenario.Series
	for r, tl := range breakers {
		if len(tl) == 0 {
			continue
		}
		s := scenario.Series{Label: fmt.Sprintf("%sr%d breaker state", prefix, r+1), Unit: "state"}
		for _, tr := range tl {
			s.Points = append(s.Points, scenario.Point{X: tr.At.Microseconds(), Y: breakerStateOrd[tr.To]})
		}
		out = append(out, s)
	}
	return out
}

// healthSeries renders the detector's suspicion-flip log as two event
// series (X: sim time in us, Y: 1-based replica number).
func healthSeries(prefix string, log []oltp.HealthTransition) []scenario.Series {
	suspects := scenario.Series{Label: prefix + "suspect events", Unit: "replica"}
	clears := scenario.Series{Label: prefix + "clear events", Unit: "replica"}
	for _, tr := range log {
		p := scenario.Point{X: tr.At.Microseconds(), Y: float64(tr.Replica + 1)}
		if tr.Suspected {
			suspects.Points = append(suspects.Points, p)
		} else {
			clears.Points = append(clears.Points, p)
		}
	}
	var out []scenario.Series
	if len(suspects.Points) > 0 {
		out = append(out, suspects)
	}
	if len(clears.Points) > 0 {
		out = append(out, clears)
	}
	return out
}

// ---------------------------------------------------------------------
// failover-kill: kill one replica's front mid-window, restore it with a
// dead first tier, and compare against an unreplicated baseline.

func runFailoverKillScenario(cfg *scenario.Config) (*scenario.Result, error) {
	killat, restartat := cfg.Duration("killat"), cfg.Duration("restartat")
	// The outage kills replica 1's front and its first tier; the restart
	// only revives the front. The detector covers the dead-front phase;
	// after the partial restart the replica answers probes but fails
	// every request, so it is the per-hop breaker that turns the
	// timeout tax into instant, rejected fast-fails — and the router
	// into failovers.
	evs := []faults.Event{
		{At: killat, Kind: faults.KillProc, Target: "r1"},
		{At: killat, Kind: faults.KillProc, Target: "r1.svc1"},
	}
	if restartat > 0 {
		evs = append(evs, faults.Event{At: restartat, Kind: faults.RestartProc, Target: "r1"})
	}
	plan := &faults.Plan{Seed: 5, Events: evs}

	// Per mode: one replicated cell and one single-instance baseline
	// under the identical plan.
	cells := sweep(2*len(chaosModes), func(i int) *oltp.ReplicatedResult {
		rc := failoverBase(cfg, chaosModes[i/2])
		rc.Plan = plan
		rc.Policy = oltp.PolicyFailover
		rc.Breaker = failoverBreaker()
		if i%2 == 1 {
			rc.Replicas = 1
		}
		return oltp.RunReplicated(rc)
	})

	res := &scenario.Result{Scenario: "failover-kill", Params: cfg.ParamStrings()}
	for mi, mode := range chaosModes {
		rep, solo := cells[2*mi], cells[2*mi+1]
		x := float64(cfg.Int("replicas"))
		res.Series = append(res.Series,
			scenario.Series{Label: mode.String() + " replicated availability", Unit: "%",
				Points: []scenario.Point{{X: x, Y: 100 * rep.Availability}}},
			scenario.Series{Label: mode.String() + " single availability", Unit: "%",
				Points: []scenario.Point{{X: 1, Y: 100 * solo.Availability}}},
			scenario.Series{Label: mode.String() + " goodput", Unit: "ops/s",
				Points: []scenario.Point{{X: x, Y: rep.Goodput}}},
			scenario.Series{Label: mode.String() + " failovers", Unit: "ops",
				Points: []scenario.Point{{X: x, Y: float64(rep.Rel.Failovers)}}},
			scenario.Series{Label: mode.String() + " detection latency", Unit: "us",
				Points: []scenario.Point{{X: x, Y: rep.Rel.MeanDetectLatency().Microseconds()}}})
		res.Series = append(res.Series, healthSeries(mode.String()+" ", rep.Health)...)
		res.Series = append(res.Series, breakerSeries(mode.String()+" ", rep.Breakers)...)
		res.Notes = append(res.Notes, fmt.Sprintf(
			"%s: kill r1@%s restart@%s: %d-replica %.1f%% available vs single %.1f%%; "+
				"%d failovers, %d detections (%.0fus mean latency, %d false), %d breaker trips",
			mode, scenario.FormatDuration(killat), scenario.FormatDuration(restartat),
			cfg.Int("replicas"), 100*rep.Availability, 100*solo.Availability,
			rep.Rel.Failovers, rep.Rel.Detections, rep.Rel.MeanDetectLatency().Microseconds(),
			rep.Rel.FalseSuspects, rep.Trips))
	}
	return res, nil
}

// ---------------------------------------------------------------------
// failover-flap: a flapping request link starves probes of a live
// replica — every suspicion is a false positive, and the detector
// timeout trades detection speed against false-positive count.

func runFailoverFlapScenario(cfg *scenario.Config) (*scenario.Result, error) {
	warmup, window := cfg.Duration("warmup"), cfg.Duration("window")
	timeouts := cfg.Ints("timeouts")
	evs := faults.Flap("link1", warmup, warmup+window, cfg.Duration("flapperiod"), cfg.Duration("flapdown"))
	plan := &faults.Plan{Seed: 5, Events: evs}

	cells := sweep(len(timeouts), func(i int) *oltp.ReplicatedResult {
		rc := failoverBase(cfg, oltp.ModeDIPC)
		rc.Plan = plan
		rc.Policy = oltp.PolicyRoundRobin
		rc.Detector = oltp.DetectorConfig{
			Every:   cfg.Duration("probeevery"),
			Timeout: sim.Micros(float64(timeouts[i])),
		}
		return oltp.RunReplicated(rc)
	})

	res := &scenario.Result{Scenario: "failover-flap", Params: cfg.ParamStrings()}
	susp := scenario.Series{Label: "suspicions", Unit: "events"}
	fp := scenario.Series{Label: "false-positive share", Unit: "%"}
	avail := scenario.Series{Label: "availability", Unit: "%"}
	good := scenario.Series{Label: "goodput", Unit: "ops/s"}
	fo := scenario.Series{Label: "failovers", Unit: "ops"}
	for i, to := range timeouts {
		r := cells[i]
		x := float64(to)
		susp.Points = append(susp.Points, scenario.Point{X: x, Y: float64(r.Rel.Suspicions)})
		fp.Points = append(fp.Points, scenario.Point{X: x, Y: 100 * r.Rel.FalsePositiveRate()})
		avail.Points = append(avail.Points, scenario.Point{X: x, Y: 100 * r.Availability})
		good.Points = append(good.Points, scenario.Point{X: x, Y: r.Goodput})
		fo.Points = append(fo.Points, scenario.Point{X: x, Y: float64(r.Rel.Failovers)})
		res.Notes = append(res.Notes, fmt.Sprintf(
			"timeout %dus: %d suspicions (%d false), %d failovers, %.1f%% available",
			to, r.Rel.Suspicions, r.Rel.FalseSuspects, r.Rel.Failovers, 100*r.Availability))
	}
	res.Series = append(res.Series, susp, fp, avail, good, fo)
	return res, nil
}

// ---------------------------------------------------------------------
// failover-hedge: one replica runs slow; hedged requests duplicate the
// laggards and the first response wins. Sweeps the hedge trigger
// fraction against a no-hedge round-robin baseline.

func runFailoverHedgeScenario(cfg *scenario.Config) (*scenario.Result, error) {
	fracs := cfg.Ints("hedgefracs")

	// Cell len(fracs) is the no-hedge round-robin baseline on the same
	// topology.
	cells := sweep(len(fracs)+1, func(i int) *oltp.ReplicatedResult {
		rc := failoverBase(cfg, oltp.ModeDIPC)
		rc.SlowReplica = 2
		rc.SlowFactor = cfg.Float("slowfactor")
		if i == len(fracs) {
			rc.Policy = oltp.PolicyRoundRobin
		} else {
			rc.Policy = oltp.PolicyHedged
			rc.HedgeFraction = float64(fracs[i]) / 100
		}
		return oltp.RunReplicated(rc)
	})
	base := cells[len(fracs)]

	res := &scenario.Result{Scenario: "failover-hedge", Params: cfg.ParamStrings()}
	p999 := scenario.Series{Label: "hedged p999", Unit: "us"}
	winrate := scenario.Series{Label: "hedge win rate", Unit: "%"}
	hedges := scenario.Series{Label: "hedges", Unit: "ops"}
	cancelled := scenario.Series{Label: "cancelled stale responses", Unit: "msgs"}
	for i, frac := range fracs {
		r := cells[i]
		x := float64(frac)
		p999.Points = append(p999.Points, scenario.Point{X: x, Y: r.P999.Microseconds()})
		winrate.Points = append(winrate.Points, scenario.Point{X: x, Y: 100 * r.Rel.HedgeWinRate()})
		hedges.Points = append(hedges.Points, scenario.Point{X: x, Y: float64(r.Rel.Hedges)})
		cancelled.Points = append(cancelled.Points, scenario.Point{X: x, Y: float64(r.Rel.Cancelled)})
		res.Notes = append(res.Notes, fmt.Sprintf(
			"hedge at %d%% of deadline: p999 %.0fus (no-hedge %.0fus), %d hedges, %.0f%% won, %d stale cancelled",
			frac, r.P999.Microseconds(), base.P999.Microseconds(),
			r.Rel.Hedges, 100*r.Rel.HedgeWinRate(), r.Rel.Cancelled))
	}
	res.Series = append(res.Series, p999, winrate, hedges, cancelled,
		scenario.Series{Label: "no-hedge p999", Unit: "us",
			Points: []scenario.Point{{X: 0, Y: base.P999.Microseconds()}}})
	return res, nil
}

// failoverCommonParams are the replicated-rack knobs every failover
// scenario exposes.
func failoverCommonParams() []scenario.ParamSpec {
	return []scenario.ParamSpec{
		scenario.Param("replicas", scenario.Int, "2", "replica count, one per machine"),
		scenario.Param("depth", scenario.Int, "2", "tier chain depth inside each replica"),
		scenario.Param("threads", scenario.Int, "2", "front worker threads per replica"),
		scenario.Param("clients", scenario.Int, "4", "closed-loop clients on machine 0"),
		scenario.Param("work", scenario.Duration, "10us", "application work per tier per request"),
		scenario.Param("warmup", scenario.Duration, "4ms", "warmup before measurement (must exceed the 1ms boot)"),
		scenario.Param("window", scenario.Duration, "16ms", "measurement window (simulated time)"),
		scenario.Param("deadline", scenario.Duration, "300us", "per-attempt client deadline"),
		scenario.Param("retries", scenario.Int, "2", "retries per operation after the first attempt"),
		scenario.Param("backoff", scenario.Duration, "20us", "initial retry backoff (doubles, capped at 8x)"),
	}
}

func checkFailoverCommon(cfg *scenario.Config) error {
	return firstErr(intAtLeast("replicas", cfg.Int("replicas"), 1),
		intAtLeast("depth", cfg.Int("depth"), 1),
		intAtLeast("threads", cfg.Int("threads"), 1),
		intAtLeast("clients", cfg.Int("clients"), 1),
		durationPositive("work", cfg.Duration("work")),
		durationPositive("warmup", cfg.Duration("warmup")),
		durationPositive("window", cfg.Duration("window")),
		durationPositive("deadline", cfg.Duration("deadline")),
		intAtLeast("retries", cfg.Int("retries"), 0),
		durationPositive("backoff", cfg.Duration("backoff")),
		intAtLeast("shards", cfg.Int("shards"), 0),
		// The client cap, the boot deadline the depth must fit, and the
		// warmup that must outlast the boot are RunReplicated's own.
		failoverBase(cfg, oltp.ModeDIPC).Validate())
}

func init() {
	scenario.Register(scenario.NewChecked("failover-kill",
		"Kill one replica's front mid-window (partial restart): replicated vs single-instance availability, detector latency, breaker fast-fails, Linux vs dIPC",
		append(failoverCommonParams(),
			scenario.Param("killat", scenario.Duration, "7ms", "sim time replica 1 (front and first tier) is killed"),
			scenario.Param("restartat", scenario.Duration, "12ms", "sim time the front restarts, tier still dead (0: never)"),
			clusterShardsParam()),
		func(cfg *scenario.Config) error {
			return firstErr(checkFailoverCommon(cfg),
				durationPositive("killat", cfg.Duration("killat")))
		},
		runFailoverKillScenario))

	scenario.Register(scenario.NewChecked("failover-flap",
		"Flap the request link of a live replica under a detector-timeout sweep: false-positive suspicions vs detection speed on the dIPC rack",
		append(failoverCommonParams(),
			scenario.Param("flapperiod", scenario.Duration, "4ms", "time between link1 outages"),
			scenario.Param("flapdown", scenario.Duration, "1500us", "length of each link1 outage"),
			scenario.Param("probeevery", scenario.Duration, "150us", "health probe period"),
			scenario.Param("timeouts", scenario.IntList, "400,1200", "detector suspicion timeouts to sweep (us)"),
			clusterShardsParam()),
		func(cfg *scenario.Config) error {
			return firstErr(checkFailoverCommon(cfg),
				durationPositive("flapperiod", cfg.Duration("flapperiod")),
				durationPositive("flapdown", cfg.Duration("flapdown")),
				durationPositive("probeevery", cfg.Duration("probeevery")),
				intsAtLeast("timeouts", cfg.Ints("timeouts"), 1))
		},
		runFailoverFlapScenario))

	scenario.Register(scenario.NewChecked("failover-hedge",
		"Hedged requests against a slow replica: tail latency and hedge win rate across the hedge trigger fraction, vs a no-hedge baseline",
		append(failoverCommonParams(),
			scenario.Param("slowfactor", scenario.Float, "6", "work multiplier on the slow replica (replica 2)"),
			scenario.Param("hedgefracs", scenario.IntList, "25,50", "hedge triggers to sweep (% of attempt deadline)"),
			clusterShardsParam()),
		func(cfg *scenario.Config) error {
			if f := cfg.Float("slowfactor"); f < 1 {
				return fmt.Errorf("slowfactor %g below 1", f)
			}
			for _, f := range cfg.Ints("hedgefracs") {
				if f < 1 || f > 99 {
					return fmt.Errorf("hedgefrac %d%% out of range [1, 99]", f)
				}
			}
			if cfg.Int("replicas") < 2 {
				return fmt.Errorf("hedging needs at least 2 replicas")
			}
			return checkFailoverCommon(cfg)
		},
		runFailoverHedgeScenario))

	scenario.RegisterGroup("failover",
		"Rack-scale replication and failover: health detection, replica routing, hedged requests",
		"failover-kill", "failover-flap", "failover-hedge")
}
