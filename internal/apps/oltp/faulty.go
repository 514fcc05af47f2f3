package oltp

import (
	"errors"
	"fmt"

	"repro/internal/cost"
	"repro/internal/faults"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Failure-aware OLTP path: the paper measures a world where every call
// succeeds. This file adds the error path — per-call fault verdicts, a
// deadline/backoff retry policy, in-band error propagation up a tier
// chain — so the chaos scenarios can measure how each transport degrades
// when tiers die, links drop, or calls time out. With a nil plan none of
// it charges anything: a nil fault site draws no verdict, a Retrier with
// no failure makes one attempt and never sleeps, and no RemoteError is
// ever built. So the fault-free chain sweep runs through RunChainFaults
// too, and its results are those of a plain call chain.

// RemoteError is an in-band failure traveling up the chain as an
// ordinary response payload — the simulation analogue of a 5xx page: the
// transport delivered fine, the tier behind it did not.
type RemoteError struct {
	Tier string // the tier that failed, e.g. "svc3"
	Err  error  // why
}

// Error implements error.
func (e *RemoteError) Error() string { return fmt.Sprintf("remote %s: %v", e.Tier, e.Err) }

// Unwrap exposes the cause for errors.Is chains.
func (e *RemoteError) Unwrap() error { return e.Err }

// unwrapRemote converts an in-band RemoteError payload into a Go error;
// any other payload passes through. All TryCall implementations funnel
// handler output through this, so a failure N tiers down surfaces at the
// client as an error without any transport growing an error channel.
func unwrapRemote(out any) (any, error) {
	if re, ok := out.(*RemoteError); ok {
		return nil, re
	}
	return out, nil
}

// injectFault draws one verdict from the call site and acts it out on
// the calling thread: a drop burns the site's penalty (the caller's
// deadline — a lost request is indistinguishable from a slow one until
// the timer fires) and reports ErrTimeout, a fail reports ErrInjected
// immediately, a slow stretches the call and succeeds. Nil site: no
// draw, no cost, no error.
func injectFault(t *kernel.Thread, site *faults.CallSite) error {
	v, d := site.Draw()
	switch v {
	case faults.VerdictDrop:
		t.SleepFor(d)
		return fmt.Errorf("%s: %w", site.Name(), faults.ErrTimeout)
	case faults.VerdictFail:
		return fmt.Errorf("%s: %w", site.Name(), faults.ErrInjected)
	case faults.VerdictSlow:
		t.SleepFor(d)
	}
	return nil
}

// Retrier wraps a Transport with a capped-exponential-backoff retry
// policy and failure accounting. Its TryCall re-attempts the inner call
// up to Policy.MaxRetries times, sleeping Policy.BackoffFor(k) between
// attempts, and returns the residual error of the last one.
type Retrier struct {
	Inner  Transport
	Policy faults.RetryPolicy
	// Rel receives attempt-level accounting (may be nil). It must be
	// owned by the same shard as every thread calling through this
	// transport.
	Rel *stats.Reliability
	// Jitter is the deterministic stream consumed by backoff jitter
	// (Policy.Jitter > 0). Nil keeps the exact schedule; like Rel it
	// must be owned by the calling shard.
	Jitter *sim.Rand
}

// retryJitter builds the per-callsite jitter stream for hop number hop
// when the policy opts into jitter, and the transparent nil stream
// otherwise — so un-jittered runs never construct (or consume) a stream
// and stay byte-identical to the pre-jitter engine.
func retryJitter(rp faults.RetryPolicy, plan *faults.Plan, hop int) *sim.Rand {
	if rp.Jitter <= 0 {
		return nil
	}
	return plan.JitterStream(fmt.Sprintf("hop%d", hop))
}

// TryCall implements Transport with retries: attempt, classify, back
// off, repeat. The residual error after the last attempt is returned.
//
//dipcvet:noalloc
func (r *Retrier) TryCall(t *kernel.Thread, op string, payload any, reqBytes int) (any, error) {
	var lastErr error
	for a := 0; a <= r.Policy.MaxRetries; a++ {
		if a > 0 {
			if r.Rel != nil {
				r.Rel.Retries++
			}
			t.SleepFor(r.Policy.BackoffJittered(a-1, r.Jitter))
		}
		if r.Rel != nil {
			r.Rel.Attempts++
		}
		out, err := r.Inner.TryCall(t, op, payload, reqBytes)
		if err == nil {
			return out, nil
		}
		lastErr = err
		if r.Rel != nil {
			switch {
			case errors.Is(err, faults.ErrTimeout):
				r.Rel.Timeouts++
			case errors.Is(err, faults.ErrRejected):
				r.Rel.Rejected++
			default:
				r.Rel.Faults++
			}
		}
		if errors.Is(err, faults.ErrRejected) {
			// A rejection is a deliberate shed by admission control or a
			// breaker, not a transient: retrying it is exactly the
			// amplification those tiers exist to prevent.
			return nil, lastErr
		}
	}
	return nil, lastErr
}

// Calls implements Transport (attempts count: each retry is a real call).
func (r *Retrier) Calls() uint64 { return r.Inner.Calls() }

// Lookahead implements Transport.
func (r *Retrier) Lookahead() sim.Time { return r.Inner.Lookahead() }

// ChainFaultsConfig is a chain run with a fault plan and retry policy.
type ChainFaultsConfig struct {
	ChainConfig
	// Plan is the fault schedule (nil or empty: a fault-free run that
	// still exercises the TryCall/Retrier path).
	Plan *faults.Plan
	// Retry applies at every hop, gateway included. Zero-value fields
	// default to Deadline 500us, Backoff 20us, MaxBackoff uncapped,
	// MaxRetries 0 (no retry).
	Retry faults.RetryPolicy
}

// ChainFaultsResult is the degradation-under-failure measurement.
type ChainFaultsResult struct {
	Config       ChainFaultsConfig
	Rel          stats.Reliability // window delta of all failure counters
	Goodput      float64           // successful ops per second
	ErrorRate    float64           // failed / offered
	Availability float64           // succeeded / offered
	RetryAmp     float64           // attempts per operation
	AvgLatency   sim.Time          // mean latency of in-window completions that succeeded
	Breakdown    stats.Breakdown
	// CallsPerOp is cross-tier calls (attempts) per completed operation,
	// over the whole run: the §7.5 calls-per-operation accounting.
	CallsPerOp float64
}

// applyDefaults fills the zero-value fields of a fault-aware chain
// configuration; RunChainFaults and RunOpenLoop share these floors.
func (cfg *ChainFaultsConfig) applyDefaults() {
	if cfg.Depth <= 0 {
		cfg.Depth = 1
	}
	if cfg.Threads <= 0 {
		cfg.Threads = 8
	}
	if cfg.CPUs <= 0 {
		cfg.CPUs = 4
	}
	if cfg.Clients <= 0 {
		cfg.Clients = cfg.Threads
	}
	if cfg.Work == 0 {
		cfg.Work = sim.Micros(20)
	}
	if cfg.ReqBytes <= 0 {
		cfg.ReqBytes = 256
	}
	if cfg.Warmup == 0 {
		cfg.Warmup = sim.Millis(20)
	}
	if cfg.Window == 0 {
		cfg.Window = sim.Millis(100)
	}
	if cfg.Cost == nil {
		cfg.Cost = cost.Default()
	}
	if cfg.Retry.Deadline == 0 {
		cfg.Retry.Deadline = sim.Micros(500)
	}
	if cfg.Retry.Backoff == 0 {
		cfg.Retry.Backoff = sim.Micros(20)
	}
}

// RunChainFaults executes one closed-loop chain configuration, under a
// fault plan when one is given. Every hop goes through TryCall behind a
// Retrier, tier failures travel up as RemoteErrors, and the plan's
// events fire on the sim clock via a faults.Injector; target names are
// chainMachine's. With a nil plan this is the fault-free chain sweep.
func RunChainFaults(cfg ChainFaultsConfig) *ChainFaultsResult {
	cfg.applyDefaults()
	c := newChainMachine(&cfg, GatewayConfig{Policy: AdmitNone}, nil)
	c.serve()

	// Closed-loop clients living off-machine, as in Run. Ops/latency
	// gate client-side on completion time; the attempt-level counters
	// window via snapshot-subtraction.
	measStart := cfg.Warmup
	measEnd := cfg.Warmup + cfg.Window
	var latSum sim.Time
	var latOps, opsTotal int64
	for i := 0; i < cfg.Clients; i++ {
		c.eng.Spawn(fmt.Sprintf("chain-client-%d", i), 0, func(p *sim.Proc) {
			for {
				req := &request{started: p.Now()}
				req.done = p.PrepareWait()
				c.gw.Submit(req, p.Now())
				p.Wait()
				opsTotal++
				if end := p.Now(); end >= measStart && end <= measEnd {
					if req.err != nil {
						c.rel.OpsFailed++
					} else {
						c.rel.OpsOK++
						latSum += end - req.started
						latOps++
					}
				}
			}
		})
	}

	window, bd := c.measure()
	res := &ChainFaultsResult{
		Config:       cfg,
		Rel:          window,
		Goodput:      window.Goodput(cfg.Window),
		ErrorRate:    window.ErrorRate(),
		Availability: window.Availability(),
		RetryAmp:     window.RetryAmplification(),
		Breakdown:    bd,
	}
	if latOps > 0 {
		res.AvgLatency = latSum / sim.Time(latOps)
	}
	if opsTotal > 0 {
		res.CallsPerOp = float64(c.calls()) / float64(opsTotal)
	}
	return res
}
