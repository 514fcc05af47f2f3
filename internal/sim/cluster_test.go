package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/hostalloc"
)

// ringPart is one partition of the cluster test model: a token-relay part
// owned by exactly one shard, obeying the Cluster ownership discipline —
// its own Rand stream seeded from part identity, all cross-part traffic
// on its outgoing Link, a pending buffer for tokens that arrive while its
// proc is mid-Sleep.
type ringPart struct {
	idx     int
	rng     *Rand
	out     *Link
	w       Waiter
	pending []uint64
	trace   []uint64
}

func (pt *ringPart) recv(v uint64) {
	if pt.w.Valid() {
		pt.w.WakeU64(0, v)
		return
	}
	pt.pending = append(pt.pending, v)
}

const ringLookahead = Time(100)

// ringTrace runs `parts` token-relay parts placed round-robin on `shards`
// shards until simulated time `until`, then digests the per-part traces
// merged in part order. Per the determinism contract, the digest must be
// identical for every shard count.
func ringTrace(seed uint64, parts, shards int, until Time) string {
	c := NewCluster(seed, shards)
	ps := make([]*ringPart, parts)
	for i := range ps {
		ps[i] = &ringPart{idx: i, rng: NewRand(uint64(i)*0x9e3779b9 + 17)}
	}
	// Links in part order — a fixed order independent of the shard count.
	for i := range ps {
		from := c.Shard(i % shards)
		to := c.Shard(((i + 1) % parts) % shards)
		ps[i].out = c.Connect(from, to, ringLookahead)
	}
	for i := range ps {
		dst := ps[(i+1)%parts]
		ps[i].out.SetHandler(dst.recv)
	}
	for i := range ps {
		pt := ps[i]
		eng := c.Shard(i % shards).Engine()
		eng.Spawn(fmt.Sprintf("part%d", i), Time(i), func(p *Proc) {
			pt.out.SendU64(ringLookahead, uint64(pt.idx)<<32) // seed one token
			for {
				var v uint64
				if len(pt.pending) > 0 {
					v, pt.pending = pt.pending[0], pt.pending[1:]
				} else {
					pt.w = p.PrepareWait()
					vv, ok := p.WaitU64()
					if !ok {
						return
					}
					v = vv
				}
				pt.trace = append(pt.trace, uint64(p.Now()), v)
				p.Sleep(Time(pt.rng.Intn(60)))
				pt.out.SendU64(ringLookahead+Time(pt.rng.Intn(40)), v+1)
			}
		})
	}
	c.RunUntil(until)

	var sb strings.Builder
	for _, pt := range ps {
		fmt.Fprintf(&sb, "part %d now %d:", pt.idx, int64(c.Shard(pt.idx%shards).Engine().Now()))
		for _, v := range pt.trace {
			fmt.Fprintf(&sb, " %d", v)
		}
		sb.WriteByte('\n')
	}
	sum := sha256.Sum256([]byte(sb.String()))
	return hex.EncodeToString(sum[:])
}

// TestClusterShardCountInvariance is the heart of the sharding contract:
// the same model produces byte-identical traces at every shard count,
// including counts that do not divide the part count and counts exceeding
// the part count.
func TestClusterShardCountInvariance(t *testing.T) {
	const parts = 6
	until := Time(40000)
	if testing.Short() {
		until = 15000
	}
	ref := ringTrace(42, parts, 1, until)
	if again := ringTrace(42, parts, 1, until); again != ref {
		t.Fatalf("1-shard run not deterministic")
	}
	for _, shards := range []int{2, 3, 4, 5, parts, parts + 2} {
		if got := ringTrace(42, parts, shards, until); got != ref {
			t.Errorf("shards=%d diverged from the sequential reference\n got %s\nwant %s", shards, got, ref)
		}
	}
}

// TestClusterStressRandomized widens the invariance check across seeds
// and sizes; it doubles as the sharded dispatch entry in the -race CI
// coverage, exercising the parallel epoch path, the channel fast path and
// the waiter machinery concurrently.
func TestClusterStressRandomized(t *testing.T) {
	seeds := []uint64{3, 9, 1234}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		for _, parts := range []int{5, 12} {
			ref := ringTrace(seed, parts, 1, 12000)
			for _, shards := range []int{2, 4} {
				if got := ringTrace(seed, parts, shards, 12000); got != ref {
					t.Errorf("seed=%d parts=%d shards=%d diverged", seed, parts, shards)
				}
			}
		}
	}
}

// TestClusterSpillOverflow floods one cross-shard link with 809 messages
// in a single epoch, growing the link's buffer through several
// reallocations, and checks nothing is lost or reordered.
func TestClusterSpillOverflow(t *testing.T) {
	const n = 809
	c := NewCluster(1, 2)
	l := c.Connect(c.Shard(0), c.Shard(1), 10)
	var got []uint64
	l.SetHandler(func(v uint64) { got = append(got, v) })
	c.Shard(0).Engine().At(0, func() {
		for k := 0; k < n; k++ {
			l.SendU64(Time(10+k), uint64(k))
		}
	})
	c.Run()
	if len(got) != n {
		t.Fatalf("received %d messages, want %d", len(got), n)
	}
	for k, v := range got {
		if v != uint64(k) {
			t.Fatalf("message %d out of order: got %d", k, v)
		}
	}
}

// TestClusterClosureLane exercises Send (the allocating closure lane)
// across shards both ways.
func TestClusterClosureLane(t *testing.T) {
	c := NewCluster(1, 2)
	ab := c.Connect(c.Shard(0), c.Shard(1), 5)
	ba := c.Connect(c.Shard(1), c.Shard(0), 5)
	var log []string
	hops := 0
	var hop func()
	hop = func() {
		log = append(log, fmt.Sprintf("hop %d", hops))
		hops++
		if hops < 6 {
			if hops%2 == 1 {
				ba.Send(5, hop)
			} else {
				ab.Send(5, hop)
			}
		}
	}
	c.Shard(0).Engine().At(0, func() { ab.Send(5, hop) })
	c.Run()
	if hops != 6 || len(log) != 6 {
		t.Fatalf("hops=%d len(log)=%d, want 6/6", hops, len(log))
	}
}

// TestConnectRejectsZeroLookahead: a cross-shard link with no lookahead
// cannot be synchronized conservatively — Connect must refuse it (the fix
// is co-locating the parts on one shard, where zero is fine).
func TestConnectRejectsZeroLookahead(t *testing.T) {
	c := NewCluster(1, 2)
	defer func() {
		if recover() == nil {
			t.Fatalf("Connect with zero cross-shard lookahead did not panic")
		}
	}()
	c.Connect(c.Shard(0), c.Shard(1), 0)
}

func TestConnectIntraShardZeroLookaheadOK(t *testing.T) {
	c := NewCluster(1, 2)
	l := c.Connect(c.Shard(1), c.Shard(1), 0)
	if l.Lookahead() != 0 {
		t.Fatalf("lookahead = %v, want 0", l.Lookahead())
	}
}

// TestSendBelowLookaheadPanics: the declared lookahead is a promise the
// horizon computation relies on; a send that undercuts it must fail
// loudly at the send site.
func TestSendBelowLookaheadPanics(t *testing.T) {
	c := NewCluster(1, 2)
	l := c.Connect(c.Shard(0), c.Shard(1), 100)
	l.SetHandler(func(uint64) {})
	c.Shard(0).Engine().At(0, func() { l.SendU64(50, 1) })
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("send below lookahead did not panic")
		}
		if !strings.Contains(fmt.Sprint(r), "below declared lookahead") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	c.Run()
}

// TestClusterPanicPropagation: a proc panicking on any shard of a
// parallel epoch must surface from Cluster.Run with the engine's normal
// containment wrapping, after the epoch has joined cleanly.
func TestClusterPanicPropagation(t *testing.T) {
	c := NewCluster(1, 3)
	// Keep every shard busy so the panicking epoch is genuinely parallel.
	for i := 0; i < 3; i++ {
		s := c.Shard(i)
		l := c.Connect(s, c.Shard((i+1)%3), 10)
		l.SetHandler(func(uint64) {})
		ll := l
		s.Engine().Spawn(fmt.Sprintf("busy%d", i), 0, func(p *Proc) {
			for k := 0; k < 100; k++ {
				p.Sleep(7)
				ll.SendU64(10, uint64(k))
			}
		})
	}
	c.Shard(1).Engine().Spawn("bomb", 333, func(p *Proc) {
		panic("boom")
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("cluster swallowed a shard panic")
		}
		if !strings.Contains(fmt.Sprint(r), "boom") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	c.Run()
}

// TestClusterRunUntilClampsClocks: like Engine.RunUntil, every shard
// clock lands exactly on t even when its last event was earlier.
func TestClusterRunUntilClampsClocks(t *testing.T) {
	c := NewCluster(1, 3)
	c.Shard(0).Engine().At(5, func() {})
	c.RunUntil(1000)
	for i := 0; i < 3; i++ {
		if now := c.Shard(i).Engine().Now(); now != 1000 {
			t.Fatalf("shard %d clock = %v after RunUntil(1000)", i, now)
		}
	}
}

// TestClusterIntraShardDispatchNoAlloc pins the acceptance criterion that
// the intra-shard dispatch path — SendU64 into the owning shard's heap,
// handler dispatch, epoch bookkeeping — allocates nothing in steady
// state.
func TestClusterIntraShardDispatchNoAlloc(t *testing.T) {
	c := NewCluster(1, 1)
	s := c.Shard(0)
	l := c.Connect(s, s, 0)
	count := 0
	l.SetHandler(func(v uint64) {
		count++
		l.SendU64(1, v+1)
	})
	s.Engine().At(0, func() { l.SendU64(1, 0) })
	c.RunUntil(5000) // warm the heap and the epoch scratch
	allocs := testing.AllocsPerRun(50, func() {
		c.RunUntil(s.Engine().Now() + 500)
	})
	if allocs != 0 {
		t.Errorf("intra-shard dispatch allocated %.1f times per 500-event window, want 0", allocs)
	}
	if count < 5000 {
		t.Fatalf("handler ran %d times, expected thousands", count)
	}
}

// pingCluster builds a 2-shard model with cross-shard traffic both ways:
// on each shard a proc sleeps a random few ticks and sends a word to the
// other shard, whose link handler counts it. Both shards nearly always
// have work inside their horizons, so most epochs are parallel.
func pingCluster() (*Cluster, *[2]uint64) {
	c := NewCluster(1, 2)
	var got [2]uint64
	links := [2]*Link{
		c.Connect(c.Shard(0), c.Shard(1), 100),
		c.Connect(c.Shard(1), c.Shard(0), 100),
	}
	links[0].SetHandler(func(uint64) { got[1]++ })
	links[1].SetHandler(func(uint64) { got[0]++ })
	for i := range links {
		l, rng := links[i], NewRand(uint64(i)+1)
		c.Shard(i).Engine().Spawn(fmt.Sprintf("pinger%d", i), 0, func(p *Proc) {
			for k := uint64(0); ; k++ {
				p.Sleep(Time(1 + rng.Intn(30)))
				l.SendU64(100+Time(rng.Intn(50)), k)
			}
		})
	}
	return c, &got
}

// TestClusterParallelEpochNoAlloc pins the barrier's steady state: once
// the link buffers and heaps have grown, a parallel epoch — dispatch to
// the worker, the coordinator's own shard, the join, the link drain —
// allocates nothing. The count is marginal, allocs(2W) - allocs(W) over
// RunUntil windows, so the per-run worker start-up cancels out.
func TestClusterParallelEpochNoAlloc(t *testing.T) {
	c, got := pingCluster()
	c.RunUntil(200000) // warm the heaps, link buffers and epoch scratch
	window := func(w Time) (allocs, par uint64) {
		p0 := c.pepoch
		allocs = hostalloc.Section(func(start, stop func()) {
			start()
			c.RunUntil(c.Shard(0).Engine().Now() + w)
			stop()
		})
		return allocs, c.pepoch - p0
	}
	const w = 20000
	a1, p1 := window(w)
	a2, p2 := window(2 * w)
	if p1 == 0 || p2 <= p1 {
		t.Fatalf("windows ran %d and %d parallel epochs; the test needs the longer window to run more", p1, p2)
	}
	if a2 > a1 {
		t.Errorf("parallel epochs allocate: %d allocs over %d parallel epochs, %d over %d (marginal %.2f per parallel epoch), want 0",
			a1, p1, a2, p2, float64(a2-a1)/float64(p2-p1))
	}
	if got[0] == 0 || got[1] == 0 {
		t.Fatalf("no cross-shard traffic: shard 0 got %d, shard 1 got %d", got[0], got[1])
	}
}

// settledGoroutines returns the goroutine count once it has held still
// for 20 ms, so goroutines that earlier tests' runs had already joined
// but that were still returning are not counted.
func settledGoroutines() int {
	for {
		n := runtime.NumGoroutine()
		time.Sleep(20 * time.Millisecond)
		if runtime.NumGoroutine() == n {
			return n
		}
	}
}

// waitGoroutines waits for the goroutine count to settle back to want:
// a joined worker has acknowledged its exit but may not have returned
// yet when run does.
func waitGoroutines(t *testing.T, want int, when string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() != want {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, want %d", when, runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestClusterWorkersDoNotOutliveRun: the barrier's workers start inside
// a run call and are joined before it returns, on the normal path and
// when a shard panic unwinds it, so consecutive runs neither leak nor
// accumulate goroutines.
func TestClusterWorkersDoNotOutliveRun(t *testing.T) {
	c, _ := pingCluster()
	base := settledGoroutines()
	for i := 0; i < 5; i++ {
		p0 := c.pepoch
		c.RunUntil(c.Shard(0).Engine().Now() + 5000)
		if c.pepoch == p0 {
			t.Fatalf("run %d had no parallel epoch", i)
		}
		waitGoroutines(t, base, fmt.Sprintf("after run %d", i))
	}
	// A callback, not a proc, panics, so no proc goroutine exits with it.
	c.Shard(1).Engine().At(1000, func() { panic("boom") })
	func() {
		defer func() {
			var spe *ShardPanicError
			if err, _ := recover().(error); !errors.As(err, &spe) || spe.Shard != 1 {
				t.Fatalf("recovered %v, want a shard 1 ShardPanicError", err)
			}
		}()
		c.RunUntil(c.Shard(0).Engine().Now() + 5000)
	}()
	waitGoroutines(t, base, "after a shard panic")
}

// BenchmarkClusterRing measures the sharded token ring end to end
// (barriers, channel traffic, parallel windows) for profiling; it is not
// a pinned regression gate.
func BenchmarkClusterRing(b *testing.B) {
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ringTrace(7, 8, shards, 20000)
			}
		})
	}
}
