// Command perfbench is the repository benchmark. It runs one workload of
// the simulator the way its users run it, times it on the host, checks
// that every simulated output is unchanged, and prints each metric by
// name with its unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload oltp-closed --seed 1 --seconds 24 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// makes a separate profiled run and reports the per-layer metrics. See
// README.md for the workloads and what each metric should move.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// maxProcs caps GOMAXPROCS: the reference host has 2 cores, and
// rack-sharded runs its 2 shards on 2 OS threads.
const maxProcs = 2

// minReps is the fewest measured executions of the workload in a run
// (of each half of a traced run), however short --seconds is.
const minReps = 3

// traceMemProfileRate is the heap sampling interval, in bytes, of the
// traced run: fine enough to split allocations by package.
const traceMemProfileRate = 4096

func main() {
	// No heap sampling outside the traced part of a run.
	runtime.MemProfileRate = 0
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", defaultSeed, "workload seed (outputs are pinned at the default seed, checked by invariants at any other)")
	seconds := fs.Float64("seconds", 24, "nominal host seconds of measured executions on the reference host")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: profiled run and per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := lookupWorkload(*name)
	switch {
	case w == nil:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, workloadNames())
		return 2
	case *seconds <= 0:
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}

	procs := min(runtime.NumCPU(), maxProcs)
	runtime.GOMAXPROCS(procs)
	fmt.Fprintf(stdout, "host: nproc=%d gomaxprocs=%d go=%s cpu=%q\n",
		runtime.NumCPU(), procs, runtime.Version(), cpuModel())
	fmt.Fprintf(stdout, "workload: %s seed=%d seconds=%g trace=%d\n", w.name, *seed, *seconds, *trace)

	res, err := measure(w, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, msg := range res.mismatches {
		fmt.Fprintf(stderr, "perfbench: %s: output check failed: %s\n", w.name, msg)
	}
	printMetrics(stdout, res.metrics, "")
	printMetrics(stdout, res.unbounded, " (unbounded, not in the JSON line)")
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, res.metrics})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func printMetrics(w io.Writer, ms map[string]metric, note string) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-28s %14.6g %s%s\n", n, ms[n].Value, ms[n].Unit, note)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	attempted, failed int64
	mismatches        []string
	metrics           map[string]metric // reported in the JSON line
	unbounded         map[string]metric // printed only
}

// rep is one measured execution of a workload, with the set-up span
// timed just before it.
type rep struct {
	setup          float64 // host seconds per set-up, over one set-up span
	wall, cpu      float64 // host seconds of the execution
	mallocs, bytes uint64  // host heap allocations of the execution
	out            *outcome
}

// timedRep times one set-up span, then one execution of the workload.
// Each starts from a freshly collected heap, so that earlier garbage is
// not charged to it.
func timedRep(w *workload, seed uint64) rep {
	runtime.GC()
	t0 := time.Now()
	for k := 0; k < w.setupBatch; k++ {
		w.run(seed, true)
	}
	setup := time.Since(t0).Seconds() / float64(w.setupBatch)

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuSeconds()
	t0 = time.Now()
	out := w.run(seed, false)
	wall := time.Since(t0).Seconds()
	c1 := cpuSeconds()
	runtime.ReadMemStats(&m1)
	return rep{setup: setup, wall: wall, cpu: c1 - c0, mallocs: m1.Mallocs - m0.Mallocs,
		bytes: m1.TotalAlloc - m0.TotalAlloc, out: out}
}

// repCount converts a run length into a number of reps, from the
// workload's nominal rep time. A fixed count, rather than a deadline,
// keeps the work of a run the same on a faster or slower commit: each
// rep leaks its simulation's parked goroutines, so the number of reps
// shapes peak memory and collector cost.
func repCount(w *workload, seconds float64) int {
	return max(minReps, int(math.Round(seconds/w.repSeconds)))
}

func repsOf(w *workload, seed uint64, n int) []rep {
	reps := make([]rep, n)
	for i := range reps {
		reps[i] = timedRep(w, seed)
	}
	return reps
}

func measure(w *workload, seed uint64, seconds float64, traced bool) (*result, error) {
	var plain, profiled []rep
	var cpuProf, heapProf bytes.Buffer
	if !traced {
		plain = repsOf(w, seed, repCount(w, seconds))
	} else {
		plain = repsOf(w, seed, repCount(w, seconds/2))
		runtime.MemProfileRate = traceMemProfileRate
		if err := pprof.StartCPUProfile(&cpuProf); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		profiled = repsOf(w, seed, repCount(w, seconds/2))
		pprof.StopCPUProfile()
		// Heap profile records are published by the collections that
		// follow them, and are scaled by the rate in force when written.
		runtime.GC()
		runtime.GC()
		err := pprof.Lookup("allocs").WriteTo(&heapProf, 0)
		runtime.MemProfileRate = 0
		if err != nil {
			return nil, fmt.Errorf("heap profile: %w", err)
		}
	}

	t0 := time.Now()
	all := append(append([]rep(nil), plain...), profiled...)
	var twinWall float64
	var twin *outcome
	if w.twin != nil {
		t := time.Now()
		twin = w.twin(seed)
		twinWall = time.Since(t).Seconds()
	}
	res := &result{metrics: map[string]metric{}}
	res.attempted, res.failed, res.mismatches = verify(w, seed, all, pins[w.name], twin)
	checkSeconds := time.Since(t0).Seconds()

	if !traced {
		endToEnd(res, plain)
		return res, nil
	}
	return res, perLayer(res, plain, profiled, checkSeconds, twinWall, &cpuProf, &heapProf)
}

// verify checks every rep's simulated outputs and returns the operations
// attempted and failed. All reps must agree with each other and with
// the expectation: the pin at the default seed, or the workload's
// invariants (and its twin, if any) at any other seed. Every request of
// a rep that disagrees counts as failed.
func verify(w *workload, seed uint64, reps []rep, pin string, twin *outcome) (attempted, failed int64, mismatches []string) {
	if len(reps) == 0 {
		return 0, 0, nil
	}
	want := reps[0].out.canonical()
	var bad error
	switch {
	case seed == defaultSeed && pin != want:
		bad = fmt.Errorf("outputs differ from the pin at seed %d:\n%s", seed, diffLines(pin, want))
	case seed != defaultSeed:
		bad = w.invariants(reps[0].out)
	}
	if bad == nil && twin != nil && twin.canonical() != want {
		bad = fmt.Errorf("outputs differ from the shards=1 twin:\n%s", diffLines(twin.canonical(), want))
	}
	if bad != nil {
		mismatches = append(mismatches, bad.Error())
	}
	for i, r := range reps {
		attempted += r.out.requests
		got := r.out.canonical()
		if bad != nil || got != want {
			failed += r.out.requests
		}
		if got != want {
			mismatches = append(mismatches, fmt.Sprintf("execution %d differs from execution 0:\n%s", i, diffLines(want, got)))
		}
	}
	return attempted, failed, mismatches
}

// diffLines lists the lines of got that differ from want.
func diffLines(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := 0; i < max(len(wl), len(gl)); i++ {
		var x, y string
		if i < len(wl) {
			x = wl[i]
		}
		if i < len(gl) {
			y = gl[i]
		}
		if x != y {
			fmt.Fprintf(&b, "  want %q got %q\n", x, y)
		}
	}
	return b.String()
}

// medianOf is the median of f over reps.
func medianOf(reps []rep, f func(r rep) float64) float64 {
	v := make([]float64, len(reps))
	for i, r := range reps {
		v[i] = f(r)
	}
	return median(v)
}

// endToEnd fills the end-to-end metrics: medians over the reps, and the
// process's peak memory.
func endToEnd(res *result, reps []rep) {
	req := func(r rep) float64 { return float64(max(r.out.requests, 1)) }
	res.metrics["setup_s"] = metric{medianOf(reps, func(r rep) float64 { return r.setup }), "s"}
	res.metrics["allocs_per_req"] = metric{medianOf(reps, func(r rep) float64 { return float64(r.mallocs) / req(r) }), "count"}
	res.metrics["alloc_bytes_per_req"] = metric{medianOf(reps, func(r rep) float64 { return float64(r.bytes) / req(r) }), "B"}
	res.metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	res.unbounded = hostTimings(reps)
}

// hostTimings are the medians of the execution timings. On the shared
// reference host they swing by 20-50% from run to run, so they stay out
// of the bounded end-to-end set (README.md, Noise and bounds): a run
// prints them beside it, and a traced run reports them as host.*.
func hostTimings(reps []rep) map[string]metric {
	setup := medianOf(reps, func(r rep) float64 { return r.setup })
	return map[string]metric{
		"sim_req_per_host_s": {medianOf(reps, func(r rep) float64 { return float64(r.out.requests) / (r.wall - setup) }), "1/s"},
		"wall_s":             {medianOf(reps, func(r rep) float64 { return r.wall }), "s"},
		"cpu_s":              {medianOf(reps, func(r rep) float64 { return r.cpu }), "s"},
	}
}

// cpuBuckets are the self-time buckets reported as <bucket>.self_s,
// allocLayers the layers reported as <layer>.allocs_per_req, and
// modelCounts the simulated counts, all in a traced run.
var (
	cpuBuckets  = append([]string{"runtime.sched", "runtime.gc_alloc", "other"}, repoLayers...)
	allocLayers = []string{"oltp", "ipc", "kernel", "sim", "core"}
	modelCounts = []string{"oltp.calls_per_req", "model.proxy_share", "model.kernel_share",
		"model.sched_share", "model.idle_share", "oltp.retry_amp", "oltp.timeouts",
		"oltp.rejected", "stats.p99_sim_us", "codoms.apl_hit_rate"}
	modelUnits = map[string]string{"oltp.calls_per_req": "count", "oltp.timeouts": "count",
		"oltp.rejected": "count", "stats.p99_sim_us": "us"}
)

// perLayer fills the per-layer metrics of a traced run. Self times are
// per execution of the workload and allocations per simulated request,
// both from the profiled reps.
func perLayer(res *result, plain, profiled []rep, check, twinWall float64, cpuProf, heapProf *bytes.Buffer) error {
	walls := func(reps []rep) float64 { return medianOf(reps, func(r rep) float64 { return r.wall }) }
	n := float64(len(profiled))
	var requests float64
	for _, r := range profiled {
		requests += float64(r.out.requests)
	}

	cp, err := parseProfile(cpuProf.Bytes())
	if err != nil {
		return fmt.Errorf("cpu %w", err)
	}
	self, err := cp.selfByBucket("cpu")
	if err != nil {
		return err
	}
	for _, b := range cpuBuckets {
		name := b + ".self_s"
		if strings.HasPrefix(b, "runtime.") {
			name = b + "_s"
		}
		res.metrics[name] = metric{float64(self[b]) / 1e9 / n, "s"}
	}

	hp, err := parseProfile(heapProf.Bytes())
	if err != nil {
		return fmt.Errorf("heap %w", err)
	}
	allocs, err := hp.allocsByLayer("alloc_objects")
	if err != nil {
		return err
	}
	for _, l := range allocLayers {
		res.metrics[l+".allocs_per_req"] = metric{float64(allocs[l]) / max(requests, 1), "count"}
	}

	for name, m := range hostTimings(plain) {
		res.metrics["host."+name] = m
	}
	res.metrics["bench.setup_s"] = metric{medianOf(profiled, func(r rep) float64 { return r.setup }), "s"}
	res.metrics["bench.run_s"] = metric{walls(profiled), "s"}
	res.metrics["bench.check_s"] = metric{check, "s"}
	res.metrics["trace.overhead_s"] = metric{walls(profiled) - walls(plain), "s"}
	barrier := 0.0
	if twinWall > 0 {
		barrier = walls(plain) - twinWall
	}
	res.metrics["cluster.barrier_overhead_s"] = metric{barrier, "s"}

	model := plain[0].out.model
	for _, c := range modelCounts {
		unit, ok := modelUnits[c]
		if !ok {
			unit = "ratio"
		}
		res.metrics[c] = metric{model[c], unit}
	}
	return nil
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the peak resident set of the process image, in MiB:
// VmHWM from /proc/self/status. ru_maxrss would not do: Linux carries it
// across execve, so it also holds the peak of whatever process forked
// the benchmark, which is larger than crosscall-deep's own.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// cpuModel names the host CPU for the record, or "unknown".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
