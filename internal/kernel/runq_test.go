package kernel

import (
	"testing"

	"repro/internal/sim"
)

// TestRunQueueMatchesSliceReference drives the run queues of a 3-CPU
// machine through the scheduler's own entry points — place (a wakeup
// onto a busy CPU pushes at the back), switchOut (the CPU dispatches
// from the front) and steal (an idle CPU takes from the back of the
// longest other queue) — with a seeded random sequence, mirroring each
// on plain slices. Every dispatched or stolen thread and every queue
// length must match the reference. The CPUs stay busy throughout, so
// place always queues and switchOut always finds its successor in its
// own queue.
func TestRunQueueMatchesSliceReference(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		_, m := newTestMachine(3)
		m.StealOnIdle = false
		proc := m.NewProcess("p")
		ref := make([][]*Thread, len(m.CPUs))
		nextID := 0
		newThread := func() *Thread {
			nextID++
			return &Thread{ID: nextID, m: m, proc: proc, state: ThreadRunnable}
		}
		for _, c := range m.CPUs {
			c.reserve(newThread())
		}
		rng := sim.NewRand(seed)
		for step := 0; step < 4000; step++ {
			ci := rng.Intn(len(m.CPUs))
			c := m.CPUs[ci]
			switch r := rng.Intn(10); {
			case r < 4 || len(ref[ci]) == 0:
				th := newThread()
				c.place(th, nil)
				ref[ci] = append(ref[ci], th)
			case r < 8:
				c.switchOut(c.cur)
				want := ref[ci][0]
				ref[ci] = ref[ci][1:]
				if c.cur != want {
					t.Fatalf("seed %d step %d: cpu%d dispatched thread %d, want %d", seed, step, ci, c.cur.ID, want.ID)
				}
			default:
				got := c.steal()
				victim, best := -1, 1
				for oi := range m.CPUs {
					if oi != ci && len(ref[oi]) > best {
						victim, best = oi, len(ref[oi])
					}
				}
				var want *Thread
				if victim >= 0 {
					want = ref[victim][len(ref[victim])-1]
					ref[victim] = ref[victim][:len(ref[victim])-1]
				}
				if got != want {
					t.Fatalf("seed %d step %d: cpu%d stole %v, want %v", seed, step, ci, got, want)
				}
			}
			for oi, o := range m.CPUs {
				if o.QueueLen() != len(ref[oi]) {
					t.Fatalf("seed %d step %d: cpu%d queue length %d, want %d", seed, step, oi, o.QueueLen(), len(ref[oi]))
				}
			}
		}
	}
}
