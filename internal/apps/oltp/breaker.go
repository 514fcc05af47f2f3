package oltp

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/kernel"
	"repro/internal/sim"
)

// Per-downstream circuit breaker. Retries turn a dead tier into a
// retry storm: every caller burns its full deadline, backs off, and
// tries again, so the failure's cost is multiplied by the retry budget
// of everything upstream. The breaker watches a sliding window of call
// outcomes and, past an error-rate threshold, fails fast for a cooldown
// — callers get an immediate in-band rejection instead of a timeout,
// and the dead tier sees no traffic until a half-open probe succeeds.

// ErrBreakerOpen is the fast-fail outcome. It wraps faults.ErrRejected:
// a breaker shed is load shedding, not a new failure — the failure
// already happened downstream.
var ErrBreakerOpen = fmt.Errorf("oltp: circuit breaker open: %w", faults.ErrRejected)

// Breaker states.
const (
	brClosed = iota
	brOpen
	brHalfOpen
)

// breakerStateName names a breaker state for transition timelines.
func breakerStateName(s int) string {
	switch s {
	case brClosed:
		return "closed"
	case brOpen:
		return "open"
	case brHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("state(%d)", s)
	}
}

// BreakerTransition is one state change of a Breaker, stamped in sim
// time — the post-hoc debugging record chaos and failover scenarios
// export alongside their counters.
type BreakerTransition struct {
	At   sim.Time
	From string
	To   string
}

// BreakerConfig parameterizes one Breaker.
type BreakerConfig struct {
	// Window is how many recent outcomes the error rate is computed
	// over (1..64, the outcome ring is one machine word; default 32).
	Window int
	// Threshold is the failure fraction that trips the breaker once the
	// window is full (default 0.5).
	Threshold float64
	// Cooldown is how long an open breaker fast-fails before probing
	// (default 200us).
	Cooldown sim.Time
	// Probes is how many trial calls half-open admits; that many
	// consecutive successes close the breaker, any failure re-opens it
	// (default 3).
	Probes int
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Window <= 0 || c.Window > 64 {
		c.Window = 32
	}
	if c.Threshold <= 0 || c.Threshold > 1 {
		c.Threshold = 0.5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = sim.Micros(200)
	}
	if c.Probes <= 0 {
		c.Probes = 3
	}
	return c
}

// Breaker wraps a Transport with circuit-breaking TryCall semantics.
// Compose it inside a Retrier (Retrier{Inner: &Breaker{...}}) so
// retries of a fast-fail are cheap backoff sleeps, not downstream
// traffic. All state belongs to the calling threads' shard.
type Breaker struct {
	Inner Transport
	cfg   BreakerConfig

	state      int
	ring       uint64 // bit = 1: that outcome was a failure
	ringI      int    // next slot
	ringN      int    // outcomes recorded, saturates at Window
	fails      int    // failures currently in the ring
	openUntil  sim.Time
	probesLeft int
	probeOK    int

	trips     int64
	fastFails int64

	timeline []BreakerTransition
}

// NewBreaker wraps inner with a breaker.
func NewBreaker(inner Transport, cfg BreakerConfig) *Breaker {
	return &Breaker{Inner: inner, cfg: cfg.withDefaults()}
}

// TryCall implements Transport: consult the breaker, maybe fast-fail,
// otherwise call through and record the outcome.
//
//dipcvet:noalloc
func (b *Breaker) TryCall(t *kernel.Thread, op string, payload any, reqBytes int) (any, error) {
	now := t.Machine().Eng.Now()
	switch b.state {
	case brOpen:
		if now < b.openUntil {
			b.fastFails++
			return nil, ErrBreakerOpen
		}
		b.setState(brHalfOpen, now)
		b.probesLeft = b.cfg.Probes
		b.probeOK = 0
		fallthrough
	case brHalfOpen:
		if b.probesLeft <= 0 {
			b.fastFails++
			return nil, ErrBreakerOpen
		}
		b.probesLeft--
	}
	out, err := b.Inner.TryCall(t, op, payload, reqBytes)
	b.observe(err != nil, t.Machine().Eng.Now())
	return out, err
}

// observe records one downstream outcome and drives the state machine.
func (b *Breaker) observe(failed bool, now sim.Time) {
	if b.state == brHalfOpen {
		if failed {
			b.trip(now)
			return
		}
		b.probeOK++
		if b.probeOK >= b.cfg.Probes {
			b.close(now)
		}
		return
	}
	bit := uint64(1) << uint(b.ringI)
	if b.ring&bit != 0 {
		b.fails--
	}
	b.ring &^= bit
	if failed {
		b.ring |= bit
		b.fails++
	}
	b.ringI = (b.ringI + 1) % b.cfg.Window
	if b.ringN < b.cfg.Window {
		b.ringN++
	}
	if b.ringN >= b.cfg.Window && float64(b.fails) >= b.cfg.Threshold*float64(b.cfg.Window) {
		b.trip(now)
	}
}

// trip opens the breaker for a cooldown.
func (b *Breaker) trip(now sim.Time) {
	b.setState(brOpen, now)
	b.openUntil = now + b.cfg.Cooldown
	b.trips++
}

// close returns to closed with a clean window.
func (b *Breaker) close(now sim.Time) {
	b.setState(brClosed, now)
	b.ring = 0
	b.ringI = 0
	b.ringN = 0
	b.fails = 0
}

// setState records the transition on the timeline and switches state.
// The append allocates, so the state-changing paths (trip, half-open
// entry, close) sit outside the noalloc contract of the fast path —
// transitions are rare next to calls.
func (b *Breaker) setState(to int, now sim.Time) {
	if b.state == to {
		return
	}
	b.timeline = append(b.timeline, BreakerTransition{
		At:   now,
		From: breakerStateName(b.state),
		To:   breakerStateName(to),
	})
	b.state = to
}

// Transitions returns the breaker's state-change timeline in sim-time
// order. The slice is owned by the breaker's shard; read it only after
// the run (or from the owning shard).
func (b *Breaker) Transitions() []BreakerTransition { return b.timeline }

// Trips is how many times the breaker has opened.
func (b *Breaker) Trips() int64 { return b.trips }

// FastFails is how many calls were shed without reaching the inner
// transport.
func (b *Breaker) FastFails() int64 { return b.fastFails }

// Calls implements Transport.
func (b *Breaker) Calls() uint64 { return b.Inner.Calls() }

// Lookahead implements Transport.
func (b *Breaker) Lookahead() sim.Time { return b.Inner.Lookahead() }
