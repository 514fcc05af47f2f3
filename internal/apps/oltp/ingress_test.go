package oltp

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/kernel"
	"repro/internal/sim"
)

// TestIngressMatchesSliceReference drives the closed-loop runners'
// front door, the AdmitNone gateway, with a seeded random mix of
// submissions and receives from one web worker,
// mirroring each on a plain slice: every received request and every
// queue length must match the reference. The queue stays short while
// thousands of requests pass through, so its ring wraps many times.
// When the reference is empty the worker blocks in Recv and a client
// submits to it directly, which must bypass the queue.
func TestIngressMatchesSliceReference(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		eng := sim.NewEngine(seed)
		m := kernel.NewMachine(eng, cost.Default(), 1)
		in := NewGateway(DefaultParams(), GatewayConfig{Policy: AdmitNone})
		handoffs, done := 0, false
		// A client that hands one request to the parked worker.
		handoff := &request{}
		var client sim.Waiter
		eng.Spawn("client", 0, func(p *sim.Proc) {
			for {
				client = p.PrepareWait()
				p.Wait()
				in.Submit(handoff, p.Now())
			}
		})
		m.Spawn(m.NewProcess("web"), "worker", nil, func(th *kernel.Thread) {
			th.SleepFor(sim.Micros(1)) // let the client park first
			rng := sim.NewRand(seed)
			var ref []*request
			for step := 0; step < 3000; step++ {
				switch {
				case len(ref) == 0 && rng.Intn(4) == 0:
					client.Wake(sim.Micros(5), nil)
					if got := in.Recv(th); got != handoff {
						t.Fatalf("seed %d step %d: parked worker received %p, want the handed-off %p", seed, step, got, handoff)
					}
					handoffs++
				case len(ref) == 0 || rng.Intn(5) < 2:
					req := &request{}
					in.Submit(req, eng.Now())
					ref = append(ref, req)
				default:
					got := in.Recv(th)
					if got != ref[0] {
						t.Fatalf("seed %d step %d: Recv returned %p, want %p", seed, step, got, ref[0])
					}
					ref = ref[1:]
				}
				if in.pending.Len() != len(ref) {
					t.Fatalf("seed %d step %d: queue length %d, want %d", seed, step, in.pending.Len(), len(ref))
				}
			}
			done = true
		})
		eng.RunUntil(sim.Second)
		if !done {
			t.Fatalf("seed %d: worker did not finish its steps", seed)
		}
		if handoffs == 0 {
			t.Fatalf("seed %d: no direct handoff exercised", seed)
		}
	}
}
