package oltp

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/cost"
	"repro/internal/kernel"
	"repro/internal/sim"
)

// runCfg is a short-window Run for tests. Runs are deterministic, so
// results are memoized: many tests assert different properties of the
// same configurations and need not re-simulate them.
func runCfg(mode Mode, inMem bool, threads int) *Result {
	key := fmt.Sprintf("%d/%v/%d", mode, inMem, threads)
	if r, ok := runCache[key]; ok {
		return r
	}
	r := Run(Config{
		Mode: mode, InMemory: inMem, Threads: threads,
		Warmup: sim.Millis(40), Window: sim.Millis(120), Seed: 9,
	})
	runCache[key] = r
	return r
}

var runCache = map[string]*Result{}

func TestDIPCAndIdealBeatLinuxEverywhere(t *testing.T) {
	inMems, threadGrid := []bool{true, false}, []int{4, 16}
	if testing.Short() {
		// One memoized point keeps the invariant covered cheaply.
		inMems, threadGrid = []bool{true}, []int{4}
	}
	for _, inMem := range inMems {
		for _, threads := range threadGrid {
			linux := runCfg(ModeLinux, inMem, threads)
			dipc := runCfg(ModeDIPC, inMem, threads)
			ideal := runCfg(ModeIdeal, inMem, threads)
			if dipc.Throughput <= linux.Throughput {
				t.Fatalf("mem=%v T=%d: dIPC (%.0f) not above Linux (%.0f)",
					inMem, threads, dipc.Throughput, linux.Throughput)
			}
			if ideal.Throughput <= linux.Throughput {
				t.Fatalf("mem=%v T=%d: Ideal (%.0f) not above Linux (%.0f)",
					inMem, threads, ideal.Throughput, linux.Throughput)
			}
			// §7.4: dIPC reaches more than 94% of the ideal efficiency
			// in all cases.
			if eff := dipc.Throughput / ideal.Throughput; eff < 0.94 {
				t.Fatalf("mem=%v T=%d: dIPC efficiency = %.1f%%, want >94%%",
					inMem, threads, 100*eff)
			}
		}
	}
}

func TestInMemorySpeedupBand(t *testing.T) {
	// Paper (in-memory): dIPC speedups 2.42×/5.12×/2.62×/1.81×/1.17×
	// across 4..512 threads, 2.13× on average. The simulation
	// reproduces the ordering and the ~2× scale, not the measured
	// mid-concurrency peak (see EXPERIMENTS.md).
	linux := runCfg(ModeLinux, true, 4)
	dipc := runCfg(ModeDIPC, true, 4)
	speedup := dipc.Throughput / linux.Throughput
	if speedup < 1.6 || speedup > 4.5 {
		t.Fatalf("in-memory T=4 speedup = %.2f, want roughly the paper's ~2.4", speedup)
	}
}

func TestFig1BreakdownShape(t *testing.T) {
	// Fig. 1: Linux ≈ 51% user / 23% kernel / 24% idle; Ideal ≈ 81% /
	// 16% / 1%, with Ideal ~1.92× faster. Assert the qualitative shape
	// at the low-concurrency point where latency dominates.
	linux := runCfg(ModeLinux, true, 4)
	ideal := runCfg(ModeIdeal, true, 4)
	if r := float64(linux.AvgLatency) / float64(ideal.AvgLatency); r < 1.5 || r > 3.4 {
		t.Fatalf("Linux/Ideal latency ratio = %.2f, want ~1.9 (Fig. 1)", r)
	}
	if linux.KernelShare() < 2*ideal.KernelShare() {
		t.Fatalf("Linux kernel share (%.1f%%) should dwarf Ideal's (%.1f%%)",
			100*linux.KernelShare(), 100*ideal.KernelShare())
	}
	if linux.IdleShare() < 0.10 {
		t.Fatalf("Linux idle share = %.1f%%, want double digits (Fig. 1: 24%%)",
			100*linux.IdleShare())
	}
	if ideal.IdleShare() > 0.05 {
		t.Fatalf("Ideal idle share = %.1f%%, want ~1%%", 100*ideal.IdleShare())
	}
	if linux.UserShare() < 0.3 || linux.UserShare() > 0.7 {
		t.Fatalf("Linux user share = %.1f%%, want ~51%%", 100*linux.UserShare())
	}
}

func TestIdleTimeEliminatedByDIPC(t *testing.T) {
	// §7.4: idle goes "from 24% to 1%" between Linux and Ideal/dIPC in
	// the in-memory configuration.
	linux := runCfg(ModeLinux, true, 4)
	dipc := runCfg(ModeDIPC, true, 4)
	if dipc.IdleShare() >= linux.IdleShare()/3 {
		t.Fatalf("dIPC idle %.1f%% not well below Linux %.1f%%",
			100*dipc.IdleShare(), 100*linux.IdleShare())
	}
}

func TestOnDiskSlowerThanInMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("four 16-thread windows are slow")
	}
	for _, mode := range []Mode{ModeLinux, ModeDIPC} {
		mem := runCfg(mode, true, 16)
		disk := runCfg(mode, false, 16)
		if disk.Throughput >= mem.Throughput {
			t.Fatalf("%v: on-disk (%.0f) not slower than in-memory (%.0f)",
				mode, disk.Throughput, mem.Throughput)
		}
	}
}

func TestThroughputRisesWithThreadsOnDisk(t *testing.T) {
	if testing.Short() {
		t.Skip("the 64-thread on-disk window is slow")
	}
	// With the disk adding latency, more threads raise throughput
	// until the CPUs saturate (the left side of Fig. 8's curves).
	low := runCfg(ModeDIPC, false, 4)
	high := runCfg(ModeDIPC, false, 64)
	if high.Throughput <= low.Throughput {
		t.Fatalf("dIPC on-disk throughput fell with threads: %.0f -> %.0f",
			low.Throughput, high.Throughput)
	}
}

func TestCallsPerOpInExpectedRange(t *testing.T) {
	r := runCfg(ModeIdeal, true, 4)
	est := (&Stack{Prm: DefaultParams()}).CallsPerOpEstimate()
	if r.CallsPerOp < est*0.6 || r.CallsPerOp > est*1.8 {
		t.Fatalf("calls/op = %.1f, estimate %.1f", r.CallsPerOp, est)
	}
	if r.CallsPerOp < 25 {
		t.Fatalf("calls/op = %.1f: the workload should be IPC-intensive", r.CallsPerOp)
	}
}

// ---- engine-level unit tests ----

func newDBWorld() (*sim.Engine, *kernel.Machine, *DB, *Params) {
	eng := sim.NewEngine(4)
	m := kernel.NewMachine(eng, cost.Default(), 1)
	prm := DefaultParams()
	db := NewDB(m, prm, false)
	return eng, m, db, prm
}

func TestDBQueries(t *testing.T) {
	eng, m, db, prm := newDBWorld()
	p := m.NewProcess("db")
	m.Spawn(p, "q", nil, func(th *kernel.Thread) {
		if r := db.Exec(th, Query{Kind: QBrowseCategory, Key: 3}); r.Rows != 10 {
			t.Errorf("browse rows = %d, want 10", r.Rows)
		}
		if r := db.Exec(th, Query{Kind: QGetProduct, Key: 42}); r.Rows != 1 || r.Data.(*Product).ID != 42 {
			t.Errorf("get product = %+v", r)
		}
		if r := db.Exec(th, Query{Kind: QLogin, Key: 7}); r.Data.(*Customer).ID != 7 {
			t.Errorf("login = %+v", r)
		}
		// Order flow: add a line, then history sees it.
		r := db.Exec(th, Query{Kind: QAddOrderLine, Key: 7, Key2: 42, Quantity: 1})
		if r.Rows != 1 {
			t.Errorf("add order = %+v", r)
		}
		if r := db.Exec(th, Query{Kind: QOrderHistory, Key: 7}); r.Rows != 1 {
			t.Errorf("history rows = %d, want 1", r.Rows)
		}
		if r := db.Exec(th, Query{Kind: QUpdateStock, Key: 42}); r.Rows != 1 {
			t.Errorf("stock = %+v", r)
		}
		if db.products[42].Stock != 99 {
			t.Errorf("stock not decremented: %d", db.products[42].Stock)
		}
	})
	eng.Run()
	_ = prm
}

func TestCommitWritesDiskOnlyOnDisk(t *testing.T) {
	eng, m, db, _ := newDBWorld()
	p := m.NewProcess("db")
	m.Spawn(p, "q", nil, func(th *kernel.Thread) {
		db.Exec(th, Query{Kind: QCommitOrder})
	})
	eng.Run()
	if _, writes := db.Disk().Stats(); writes != 1 {
		t.Fatalf("on-disk commit writes = %d, want 1", writes)
	}

	eng2 := sim.NewEngine(4)
	m2 := kernel.NewMachine(eng2, cost.Default(), 1)
	db2 := NewDB(m2, DefaultParams(), true)
	p2 := m2.NewProcess("db")
	m2.Spawn(p2, "q", nil, func(th *kernel.Thread) {
		db2.Exec(th, Query{Kind: QCommitOrder})
	})
	eng2.Run()
	if _, writes := db2.Disk().Stats(); writes != 0 {
		t.Fatalf("tmpfs commit writes = %d, want 0", writes)
	}
}

func TestBufferPoolWarm(t *testing.T) {
	_, _, db, prm := newDBWorld()
	if db.Pool().Resident() != prm.PageSpace {
		t.Fatalf("pool resident = %d, want prewarmed %d", db.Pool().Resident(), prm.PageSpace)
	}
}

func TestBufferPoolLRUEviction(t *testing.T) {
	eng := sim.NewEngine(4)
	m := kernel.NewMachine(eng, cost.Default(), 1)
	disk := NewDisk(m)
	bp := NewBufferPool(2, disk, false)
	p := m.NewProcess("p")
	m.Spawn(p, "t", nil, func(th *kernel.Thread) {
		bp.Access(th, 1, true) // miss, dirty
		bp.Access(th, 2, false)
		bp.Access(th, 3, false) // evicts 1 (dirty -> write back)
		bp.Access(th, 1, false) // miss again
	})
	eng.Run()
	hits, misses := bp.Stats()
	if hits != 0 || misses != 4 {
		t.Fatalf("pool stats = %d hits %d misses", hits, misses)
	}
	reads, writes := disk.Stats()
	if reads != 4 || writes != 1 {
		t.Fatalf("disk = %d reads %d writes, want 4/1", reads, writes)
	}
}

func TestDiskSerializes(t *testing.T) {
	eng := sim.NewEngine(4)
	m := kernel.NewMachine(eng, cost.Default(), 2)
	disk := NewDisk(m)
	p := m.NewProcess("p")
	var done [2]sim.Time
	for i := 0; i < 2; i++ {
		i := i
		m.Spawn(p, "w", m.CPUs[i], func(th *kernel.Thread) {
			disk.Write(th)
			done[i] = eng.Now()
		})
	}
	eng.Run()
	gap := done[1] - done[0]
	if gap < 0 {
		gap = -gap
	}
	da := cost.Default().DiskAccess
	if gap < da*9/10 {
		t.Fatalf("concurrent writes gap = %v, want ~%v (serialized device)", gap, da)
	}
}

func TestGenOpMixAndDeterminism(t *testing.T) {
	prm := DefaultParams()
	counts := map[OpKind]int{}
	rng := sim.NewRand(1)
	for i := 0; i < 3000; i++ {
		counts[GenOp(rng, prm).Kind]++
	}
	if counts[OpBrowse] < 1200 || counts[OpLogin] < 400 || counts[OpPurchase] < 700 {
		t.Fatalf("mix off: %v", counts)
	}
	// Determinism: identical seed, identical stream.
	a, b := sim.NewRand(42), sim.NewRand(42)
	for i := 0; i < 100; i++ {
		x, y := GenOp(a, prm), GenOp(b, prm)
		if x.Kind != y.Kind || len(x.Queries) != len(y.Queries) {
			t.Fatal("GenOp not deterministic")
		}
	}
}

// TestDrawRecycledMatchesGenOp checks that redrawing one recycled
// Operation — as a closed-loop client does, with the previous plan's
// results still in its query slots — yields exactly the plans fresh
// GenOp calls draw from the same stream.
func TestDrawRecycledMatchesGenOp(t *testing.T) {
	prm := DefaultParams()
	a, b := sim.NewRand(9), sim.NewRand(9)
	op := &Operation{}
	for i := 0; i < 500; i++ {
		op.Draw(a, prm)
		want := GenOp(b, prm)
		if op.Kind != want.Kind || !slices.Equal(op.Queries, want.Queries) {
			t.Fatalf("draw %d: recycled %+v, fresh %+v", i, op, want)
		}
		for j := range op.Queries {
			op.Queries[j].Result = QueryResult{Rows: 7, Bytes: 99}
		}
	}
}

func TestRunDeterminism(t *testing.T) {
	a := runCfg(ModeLinux, true, 4)
	b := runCfg(ModeLinux, true, 4)
	if a.Ops != b.Ops || a.AvgLatency != b.AvgLatency {
		t.Fatalf("identical configs diverged: %d/%v vs %d/%v",
			a.Ops, a.AvgLatency, b.Ops, b.AvgLatency)
	}
}
