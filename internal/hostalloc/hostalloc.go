// Package hostalloc counts the host heap allocations of a code section,
// for the tests that pin the simulator's zero-alloc paths.
//
// runtime.MemStats.Mallocs is process-wide, and the runtime.ReadMemStats
// that reads it stops and restarts the world. With several Ps, the
// restart can wake an idle P and create an OS thread, whose bookkeeping
// allocations then land inside the measured window. Like
// testing.AllocsPerRun, every count here is taken with GOMAXPROCS
// pinned to 1, which leaves no idle P to wake.
package hostalloc

import "runtime"

// Section runs body with GOMAXPROCS pinned to 1 and returns the heap
// allocations made between body's calls to start and stop. body must
// call each exactly once, start first.
func Section(body func(start, stop func())) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	body(func() { runtime.ReadMemStats(&before) }, func() { runtime.ReadMemStats(&after) })
	return after.Mallocs - before.Mallocs
}

// Count runs f with GOMAXPROCS pinned to 1 and returns the heap
// allocations it made.
func Count(f func()) uint64 {
	return Section(func(start, stop func()) {
		start()
		f()
		stop()
	})
}
