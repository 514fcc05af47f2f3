package sim

import (
	"fmt"
	"runtime"
	"strings"
)

// Cluster runs one simulation across N shards, each a full Engine with
// its own clock, event heap and deterministically-derived Rand stream,
// synchronized conservatively in the Chandy–Misra tradition: a shard may
// advance only to its horizon — the minimum, over its incoming
// cross-shard links, of the sender's next event time plus the link's
// declared lookahead. Shards whose pending work lies inside their horizon
// run in parallel on host cores; between bursts a single-threaded barrier
// drains the links and recomputes horizons (an epoch). Because every
// cross-shard link must declare positive lookahead, the shard holding the
// globally earliest event always has a horizon beyond it, so every epoch
// makes progress.
//
// # Ownership discipline (the determinism contract)
//
// Results are byte-identical at every shard count if the model obeys
// three rules:
//
//  1. Every mutable simulation object (machine, queue, proc) is owned by
//     exactly one part, and parts interact only through Links. Waking a
//     Waiter, pushing a callback with At, or touching shared state across
//     a part boundary without a Link is a race at shards>1 and a silent
//     divergence source even when it happens to be safe.
//  2. Parts draw randomness from their own explicit Rand streams (seeded
//     from part identity), never from the shard engine's Rand — which
//     engine a part lands on depends on placement.
//  3. Parts are connected in a fixed order independent of the shard
//     count, because link IDs (which break cross-shard timestamp ties,
//     see Link) are assigned in Connect order.
//
// Under those rules the event order any single part observes is the same
// total (at, seq) suborder in every placement, so per-part state — and
// therefore anything merged from parts in a deterministic order — is
// placement-invariant. shards=1 is the plain sequential engine loop and
// serves as the reference: the differential golden tests pin that
// shards>1 reproduces its digests byte for byte.
type Cluster struct {
	shards []*Shard
	links  []*Link
	epoch  uint64 // barrier iterations completed (diagnostics)
	pepoch uint64 // of which ran two or more shards at once (diagnostics)

	// Per-epoch scratch, reused so the barrier allocates nothing in
	// steady state.
	next     []Time
	eot      []Time
	horizon  []Time
	runnable []*Shard
	xlinks   []*Link // links with from != to (the only ones that buffer)

	// Parallel-epoch workers: one persistent goroutine per shard index
	// >= 1, started at a run's first parallel epoch and joined before
	// that run returns. Each worker acknowledges every epoch it ran, and
	// its own exit, on done.
	done     chan struct{}
	workers  bool // the workers are up
	inflight int  // epochs handed to workers and not yet acknowledged
}

// ShardPanicError is the structured wrapper a Cluster run panics with
// when a shard's engine surfaced a panic: it carries which shard blew
// up, that shard's clock at the time, and the link epoch, so a chaos
// run's post-mortem does not start from a bare string.
type ShardPanicError struct {
	Shard int    // index of the panicking shard
	Clock Time   // the shard's simulated clock when the panic surfaced
	Epoch uint64 // barrier epochs completed when it surfaced
	Value any    // the engine-contained panic value
}

func (e *ShardPanicError) Error() string {
	return fmt.Sprintf("sim: shard %d panicked at t=%v (link epoch %d): %v",
		e.Shard, e.Clock, e.Epoch, e.Value)
}

// Unwrap exposes the contained engine error for errors.Is/As chains.
func (e *ShardPanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// EpochStallError reports a barrier epoch that could not advance any
// shard even though live events remained — a broken-lookahead invariant.
// It names the parked procs per shard so the stall is debuggable instead
// of an opaque spin.
type EpochStallError struct {
	Epoch   uint64
	Blocked []string // "shardN/procname" entries
}

func (e *EpochStallError) Error() string {
	return fmt.Sprintf("sim: cluster epoch %d made no progress; blocked procs: %s",
		e.Epoch, strings.Join(e.Blocked, ", "))
}

// ClusterDeadlockError reports that every shard went quiet with procs
// still parked — the cluster analogue of Engine's DeadlockError, emitted
// by the stalled-run watchdog instead of letting the caller discover a
// silent hang-shaped result.
type ClusterDeadlockError struct {
	Blocked []string // "shardN/procname" entries
}

func (e *ClusterDeadlockError) Error() string {
	const show = 8
	names := e.Blocked
	extra := ""
	if len(names) > show {
		extra = fmt.Sprintf(" and %d more", len(names)-show)
		names = names[:show]
	}
	return fmt.Sprintf("sim: cluster deadlock: %d proc(s) blocked with no pending event: %s%s",
		len(e.Blocked), strings.Join(names, ", "), extra)
}

// blockedProcs collects every shard's parked-with-no-wakeup procs as
// "shardN/name" entries, in shard order.
func (c *Cluster) blockedProcs() []string {
	var out []string
	for _, s := range c.shards {
		for _, name := range s.eng.BlockedProcs() {
			out = append(out, fmt.Sprintf("shard%d/%s", s.idx, name))
		}
	}
	return out
}

// Deadlock returns a ClusterDeadlockError naming the blocked procs if
// any shard has live procs but no shard has a deliverable event, nil
// otherwise.
func (c *Cluster) Deadlock() error {
	live := 0
	for _, s := range c.shards {
		if s.eng.PendingLive() > 0 {
			return nil
		}
		live += s.eng.Live()
	}
	if live == 0 {
		return nil
	}
	return &ClusterDeadlockError{Blocked: c.blockedProcs()}
}

// Shard is one partition of a Cluster: an Engine plus its cluster wiring.
type Shard struct {
	c        *Cluster
	idx      int
	eng      *Engine
	in       []*Link   // incoming cross-shard links (horizon inputs)
	start    chan Time // epoch limits for this shard's worker (cap 1)
	panicVal any
}

// stopWorker is the start token that ends a shard worker; a real epoch
// limit is never negative.
const stopWorker = Time(-1)

// NewCluster creates a cluster of n shards (n <= 0 means one per host
// core, i.e. GOMAXPROCS). Shard 0's engine is seeded exactly like
// NewEngine(seed) — the 1-shard cluster is bit-for-bit the sequential
// engine — and shard i > 0 gets a stream derived from (seed, i) by a
// splitmix64 mix, so shard streams are decorrelated but reproducible.
func NewCluster(seed uint64, n int) *Cluster {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	c := &Cluster{
		shards:  make([]*Shard, n),
		next:    make([]Time, n),
		eot:     make([]Time, n),
		horizon: make([]Time, n),
	}
	for i := range c.shards {
		c.shards[i] = &Shard{c: c, idx: i, eng: NewEngine(shardSeed(seed, i))}
	}
	if n > 1 {
		c.done = make(chan struct{}, n-1) // one slot per worker: an acknowledgement never waits
		for _, s := range c.shards[1:] {
			s.start = make(chan Time, 1)
		}
	}
	return c
}

// shardSeed derives shard i's engine seed. Shard 0 keeps the master seed
// (the sequential reference path); others get a splitmix64-style mix.
func shardSeed(seed uint64, i int) uint64 {
	if i == 0 {
		return seed
	}
	z := seed + uint64(i)*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Shards returns the number of shards.
func (c *Cluster) Shards() int { return len(c.shards) }

// Shard returns shard i.
func (c *Cluster) Shard(i int) *Shard { return c.shards[i] }

// Engine returns the shard's engine. Model code running on the shard
// (procs, callbacks, link handlers) may use it freely; code outside the
// cluster may only touch it between Run/RunUntil calls.
func (s *Shard) Engine() *Engine { return s.eng }

// Index returns the shard's position in the cluster.
func (s *Shard) Index() int { return s.idx }

// Connect creates a link from shard `from` to shard `to` whose messages
// take at least lookahead of simulated time to arrive. A cross-shard link
// must declare positive lookahead — zero-latency coupling would force the
// two shards into lockstep, which is exactly what placing both parts on
// one shard expresses; Connect refuses rather than degrade silently.
// Links must be created before the cluster first runs, in an order that
// does not depend on the shard count (see the determinism contract).
func (c *Cluster) Connect(from, to *Shard, lookahead Time) *Link {
	if from.c != c || to.c != c {
		panic("sim: Connect across clusters")
	}
	if from != to && lookahead <= 0 {
		panic(fmt.Sprintf("sim: cross-shard link %d->%d needs positive lookahead; co-locate zero-latency parts on one shard",
			from.idx, to.idx))
	}
	if lookahead < 0 {
		lookahead = 0
	}
	if len(c.links) >= 1<<linkIDBits {
		panic("sim: too many links")
	}
	l := &Link{id: len(c.links), from: from, to: to, lookahead: lookahead}
	c.links = append(c.links, l)
	if from != to {
		to.in = append(to.in, l)
		c.xlinks = append(c.xlinks, l)
	}
	return l
}

// RunUntil processes events on every shard up to and including time t,
// then sets all shard clocks to t — the cluster-wide analogue of
// Engine.RunUntil, with identical semantics at shards=1.
func (c *Cluster) RunUntil(t Time) {
	c.run(t)
	for _, s := range c.shards {
		if s.eng.now < t {
			s.eng.now = t
		}
	}
}

// Run processes events until every shard's queue is empty. Deadlocked
// procs are left parked, and the watchdog names them in the returned
// ClusterDeadlockError rather than handing back a silent hang-shaped
// result; callers that park service pools on purpose ignore it.
func (c *Cluster) Run() error {
	c.run(maxTime)
	return c.Deadlock()
}

// run is the epoch loop. Each iteration: drain cross-shard buffers into
// the receiving heaps (single-threaded — the conservative horizons of the
// previous epoch guarantee everything a shard needed this epoch had
// already arrived), compute each shard's next live event time and
// horizon, then run every shard with work inside its horizon in parallel
// and barrier on completion.
func (c *Cluster) run(t Time) {
	defer c.stopWorkers()
	for {
		for _, l := range c.xlinks {
			l.drain()
		}
		empty := true
		for i, s := range c.shards {
			if nt, ok := s.eng.nextLiveTime(); ok {
				c.next[i] = nt
				empty = false
			} else {
				c.next[i] = maxTime
			}
		}
		if empty {
			return
		}
		tMin := c.next[0]
		for _, nt := range c.next[1:] {
			if nt < tMin {
				tMin = nt
			}
		}
		if tMin > t {
			return
		}
		// eot[i] bounds the earliest time shard i could send anything this
		// epoch — accounting for transitive wakeups: an idle shard (empty
		// heap) can still be woken by an incoming message and relay
		// immediately, so its earliest output is the earliest path into it
		// plus nothing. This is a shortest-path relaxation over the link
		// graph with lookahead as edge weight and next[] as the source
		// distances; positive lookahead bounds it to at most len(shards)
		// passes. Using raw next[] here is the classic conservative-sync
		// bug: a shard facing an "idle" neighbor would run arbitrarily far
		// ahead, then receive the neighbor's reply in its past.
		copy(c.eot, c.next)
		for changed := true; changed; {
			changed = false
			for _, l := range c.xlinks {
				if cand := satAdd(c.eot[l.from.idx], l.lookahead); cand < c.eot[l.to.idx] {
					c.eot[l.to.idx] = cand
					changed = true
				}
			}
		}
		for i, s := range c.shards {
			h := satAdd(t, 1) // the run limit itself is inclusive
			for _, l := range s.in {
				if lh := satAdd(c.eot[l.from.idx], l.lookahead); lh < h {
					h = lh
				}
			}
			c.horizon[i] = h
		}
		c.runnable = c.runnable[:0]
		for i, s := range c.shards {
			if c.next[i] < c.horizon[i] {
				c.runnable = append(c.runnable, s)
			}
		}
		c.epoch++
		switch len(c.runnable) {
		case 0:
			// Positive lookahead makes this unreachable (the shard
			// owning tMin always clears its horizon); fail loudly —
			// naming the parked procs — rather than spin if the
			// invariant is ever broken.
			panic(&EpochStallError{Epoch: c.epoch, Blocked: c.blockedProcs()})
		case 1:
			s := c.runnable[0]
			runShard(s, c.horizon[s.idx]-1)
		default:
			c.parallelEpoch()
		}
		for _, s := range c.shards {
			if s.panicVal != nil {
				v := s.panicVal
				s.panicVal = nil
				panic(&ShardPanicError{Shard: s.idx, Clock: s.eng.now, Epoch: c.epoch, Value: v})
			}
		}
	}
}

// parallelEpoch runs every runnable shard to its horizon at once. The
// coordinator keeps the lowest-indexed runnable shard for itself and
// hands each other one its limit over the shard's start channel, then
// collects one completion per hand-off from done. The channel operations
// are the barrier's happens-before edges: the send orders the previous
// drain before the epoch, each completion orders the shard's sends and
// state changes before the next drain.
//
//dipcvet:noalloc
func (c *Cluster) parallelEpoch() {
	if !c.workers {
		c.startWorkers()
	}
	c.pepoch++
	for _, s := range c.runnable[1:] {
		s.start <- c.horizon[s.idx] - 1
		c.inflight++
	}
	head := c.runnable[0]
	runShard(head, c.horizon[head.idx]-1)
	for ; c.inflight > 0; c.inflight-- {
		<-c.done
	}
}

// startWorkers launches one worker per shard index >= 1.
func (c *Cluster) startWorkers() {
	for _, s := range c.shards[1:] {
		//dipcvet:goroutine-ok barrier worker: runs its shard only between a start token and the completion the coordinator waits for, so shards touch disjoint state; joined before run returns
		go c.worker(s, s.start)
	}
	c.workers = true
}

// worker runs shard s's parallel epochs until it receives stopWorker.
// It reads start from its argument, never from the Shard, so nothing a
// later run does to the Shard can race with a worker that is exiting.
func (c *Cluster) worker(s *Shard, start <-chan Time) {
	for {
		limit := <-start
		if limit == stopWorker {
			c.done <- struct{}{}
			return
		}
		runShard(s, limit)
		c.done <- struct{}{}
	}
}

// stopWorkers joins the workers, if they are up: it first collects any
// epoch still in flight (only a coordinator unwinding mid-epoch leaves
// one), then stops every worker and waits for each to acknowledge. No
// worker goroutine outlives the run call that started it.
func (c *Cluster) stopWorkers() {
	if !c.workers {
		return
	}
	for _, s := range c.shards[1:] {
		s.start <- stopWorker
	}
	for n := c.inflight + len(c.shards) - 1; n > 0; n-- {
		<-c.done
	}
	c.inflight = 0
	c.workers = false
}

// runShard advances one shard to its horizon, capturing a panic (already
// wrapped by the engine's containment) so a parallel epoch can finish
// joining before run re-throws the lowest-indexed shard's panic.
func runShard(s *Shard, limit Time) {
	defer func() {
		if r := recover(); r != nil {
			s.panicVal = r
		}
	}()
	s.eng.runWindow(limit)
}
