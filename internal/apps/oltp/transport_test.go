package oltp

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/kernel"
	"repro/internal/sim"
)

// mustTryCall makes one call through tr and fails the test on an error.
func mustTryCall(t *testing.T, tr Transport, th *kernel.Thread, op string, payload any, reqBytes int) any {
	t.Helper()
	out, err := tr.TryCall(th, op, payload, reqBytes)
	if err != nil {
		t.Errorf("TryCall(%q) = %v", op, err)
	}
	return out
}

func TestDirectTransportCountsCalls(t *testing.T) {
	eng := sim.NewEngine(1)
	m := kernel.NewMachine(eng, cost.Default(), 1)
	p := m.NewProcess("p")
	tr := &DirectTransport{H: func(th *kernel.Thread, op string, payload any) (any, int) {
		return payload.(int) * 2, 8
	}}
	var got any
	m.Spawn(p, "t", nil, func(th *kernel.Thread) {
		got = mustTryCall(t, tr, th, "double", 21, 8)
	})
	eng.Run()
	if got != 42 || tr.Calls() != 1 {
		t.Fatalf("got %v, calls %d", got, tr.Calls())
	}
}

func TestSockTransportRoundTrip(t *testing.T) {
	eng := sim.NewEngine(1)
	m := kernel.NewMachine(eng, cost.Default(), 2)
	pc := m.NewProcess("client")
	ps := m.NewProcess("server")
	prm := DefaultParams()
	tr := NewSockTransport(prm, func(th *kernel.Thread, op string, payload any) (any, int) {
		if op != "q" {
			t.Errorf("op = %q", op)
		}
		return payload.(string) + "-reply", 64
	})
	m.Spawn(ps, "worker", m.CPUs[1], tr.Worker)
	var got any
	m.Spawn(pc, "client", m.CPUs[0], func(th *kernel.Thread) {
		got = mustTryCall(t, tr, th, "q", "hello", 128)
		got = mustTryCall(t, tr, th, "q", got, 128)
	})
	eng.Run()
	if got != "hello-reply-reply" {
		t.Fatalf("got %v", got)
	}
	if tr.Calls() != 2 {
		t.Fatalf("calls = %d", tr.Calls())
	}
}

func TestSockTransportPerThreadReplySockets(t *testing.T) {
	// Two concurrent callers must not steal each other's replies.
	eng := sim.NewEngine(1)
	m := kernel.NewMachine(eng, cost.Default(), 4)
	pc := m.NewProcess("client")
	ps := m.NewProcess("server")
	prm := DefaultParams()
	tr := NewSockTransport(prm, func(th *kernel.Thread, op string, payload any) (any, int) {
		th.SleepFor(sim.Time(payload.(int)) * sim.Microsecond) // reorder replies
		return payload, 32
	})
	for i := 0; i < 2; i++ {
		m.Spawn(ps, "worker", nil, tr.Worker)
	}
	results := map[int]any{}
	for i := 0; i < 2; i++ {
		i := i
		m.Spawn(pc, "client", nil, func(th *kernel.Thread) {
			// Client 0 asks for a slow reply, client 1 a fast one.
			results[i] = mustTryCall(t, tr, th, "q", 100-90*i, 64)
		})
	}
	eng.Run()
	if results[0] != 100 || results[1] != 10 {
		t.Fatalf("replies crossed: %v", results)
	}
}

func TestWorkloadEstimateMatchesHandlers(t *testing.T) {
	// The static estimate should track what the handlers actually do.
	prm := DefaultParams()
	s := &Stack{Prm: prm}
	est := s.CallsPerOpEstimate()
	if est < 25 || est > 60 {
		t.Fatalf("estimate = %.1f, outside the designed range", est)
	}
	if w := s.opWorkEstimate(); w < sim.Micros(500) || w > sim.Millis(3) {
		t.Fatalf("per-op work estimate = %v", w)
	}
}
