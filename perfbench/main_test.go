package main

import (
	"bytes"
	"errors"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"

	"repro/internal/sim"
)

// fakeWorkload yields a fixed outcome, so verify can be driven without
// running a simulation.
func fakeWorkload(invariantErr error) *workload {
	return &workload{
		name:       "fake",
		invariants: func(*outcome) error { return invariantErr },
	}
}

func fakeReps(n int, v float64) []rep {
	reps := make([]rep, n)
	for i := range reps {
		o := &outcome{requests: 100}
		o.add("ops", v)
		reps[i] = rep{out: o}
	}
	return reps
}

func TestVerifyCountsEveryRequestOfAMismatchAsFailed(t *testing.T) {
	w := fakeWorkload(nil)
	tests := []struct {
		name       string
		seed       uint64
		reps       []rep
		pin        string
		twin       *outcome
		wantFailed int64
	}{
		{"pin matches", defaultSeed, fakeReps(3, 42), "ops=42\n", nil, 0},
		{"pin perturbed", defaultSeed, fakeReps(3, 42), "ops=43\n", nil, 300},
		{"twin differs", defaultSeed, fakeReps(3, 42), "ops=42\n", fakeReps(1, 41)[0].out, 300},
		{"executions disagree", 7, append(fakeReps(2, 42), fakeReps(1, 41)...), "", nil, 100},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			attempted, failed, msgs := verify(w, tc.seed, tc.reps, tc.pin, tc.twin)
			if attempted != 300 || failed != tc.wantFailed {
				t.Fatalf("attempted %d failed %d, want 300 and %d", attempted, failed, tc.wantFailed)
			}
			if (failed > 0) != (len(msgs) > 0) {
				t.Fatalf("failed %d but mismatch messages %q", failed, msgs)
			}
		})
	}
}

func TestVerifyChecksInvariantsAwayFromTheDefaultSeed(t *testing.T) {
	_, failed, _ := verify(fakeWorkload(nil), 7, fakeReps(2, 42), "ops=1\n", nil)
	if failed != 0 {
		t.Fatalf("a seed without a pin must not be compared with the default seed's pin; failed %d", failed)
	}
	_, failed, msgs := verify(fakeWorkload(errors.New("conservation broken")), 7, fakeReps(2, 42), "", nil)
	if failed != 200 || !strings.Contains(strings.Join(msgs, "\n"), "conservation broken") {
		t.Fatalf("broken invariant: failed %d, messages %q", failed, msgs)
	}
}

// A real workload at the default seed matches its pin, and the same
// outputs against a perturbed pin are reported as failed operations.
func TestPerturbedPinIsReportedAsFailedOperations(t *testing.T) {
	w := lookupWorkload("crosscall-deep")
	reps := []rep{{out: w.run(defaultSeed, false)}}
	pin := pins[w.name]
	if _, failed, msgs := verify(w, defaultSeed, reps, pin, nil); failed != 0 {
		t.Fatalf("unperturbed pin: failed %d: %q", failed, msgs)
	}
	perturbed := strings.Replace(pin, "mean_per_call_ps=800400", "mean_per_call_ps=800401", 1)
	if perturbed == pin {
		t.Fatal("pin does not hold the expected mean_per_call_ps line")
	}
	attempted, failed, _ := verify(w, defaultSeed, reps, perturbed, nil)
	if failed == 0 || failed != attempted {
		t.Fatalf("perturbed pin: attempted %d failed %d, want every request failed", attempted, failed)
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "crosscall-deep", "--seconds", "0"},
		{"--workload", "crosscall-deep", "--trace", "2"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 || stderr.Len() == 0 {
			t.Errorf("%q: exit %d, stdout %q, stderr %q; want exit 2 and only a message on stderr",
				args, code, stdout.String(), stderr.String())
		}
	}
}

func TestCPUBuckets(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/sim.(*Engine).Run":              "sim",
		"repro/internal/apps/oltp.(*Stack).WebHandle":   "oltp",
		"repro/internal/apps/netpipe.(*NIC).FlightTime": "netpipe",
		"repro/internal/cost.Default":                   "other",
		"runtime.mallocgc":                              "runtime.gc_alloc",
		"runtime.(*mheap).alloc":                        "runtime.gc_alloc",
		"runtime.gopark":                                "runtime.sched",
		"internal/runtime/atomic.(*Uint32).Load":        "runtime.sched",
		"sort.Float64s":                                 "other",
		"main.timedRep":                                 "other",
		"repro/internal/experiments.RunRack.func3":      "experiments",
		"repro/internal/codoms.(*APLCache).Lookup[...]": "codoms",
	} {
		if got := cpuBucket(fn); got != want {
			t.Errorf("cpuBucket(%q) = %q, want %q", fn, got, want)
		}
	}
}

var sink []*sim.Engine

// A heap profile taken with every allocation sampled attributes the
// allocations of sim.NewEngine to the sim layer.
func TestAllocsByLayerFromARealProfile(t *testing.T) {
	old := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	defer func() { runtime.MemProfileRate = old }()
	for i := 0; i < 100; i++ {
		sink = append(sink, sim.NewEngine(uint64(i)))
	}
	runtime.GC()
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	by, err := p.allocsByLayer("alloc_objects")
	if err != nil {
		t.Fatal(err)
	}
	if by["sim"] < 100 {
		t.Fatalf("sim allocations %d, want at least one per engine (100); all layers %v", by["sim"], by)
	}
	if _, err := p.selfByBucket("cpu"); err == nil {
		t.Fatal("a heap profile has no cpu samples; want an error")
	}
}
