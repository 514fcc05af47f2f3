package oltp

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/stats"
)

// okTransport succeeds immediately without touching the thread — the
// steady state of a wrapped transport when no fault fires.
type okTransport struct{ out any }

func (f *okTransport) TryCall(t *kernel.Thread, op string, payload any, reqBytes int) (any, error) {
	return f.out, nil
}

func (f *okTransport) Calls() uint64       { return 0 }
func (f *okTransport) Lookahead() sim.Time { return 0 }

// TestRetrierSuccessPathAllocFree pins the //dipcvet:noalloc contract on
// Retrier.TryCall at runtime: when the first attempt succeeds (no fault,
// no retry, no backoff sleep), the retry wrapper adds zero allocations
// per call on top of the inner transport. The payload is pre-boxed so
// the measurement sees the wrapper, not the caller's boxing.
func TestRetrierSuccessPathAllocFree(t *testing.T) {
	r := &Retrier{
		Inner:  &okTransport{out: "ok"},
		Policy: faults.RetryPolicy{MaxRetries: 3},
		Rel:    &stats.Reliability{},
	}
	var payload any = uint64(7)
	allocs := testing.AllocsPerRun(200, func() {
		out, err := r.TryCall(nil, "op", payload, 64)
		if err != nil || out != "ok" {
			t.Fatalf("TryCall = %v, %v", out, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Retrier.TryCall success path allocates %.1f allocs/op, want 0", allocs)
	}
	if r.Rel.Attempts == 0 || r.Rel.Retries != 0 {
		t.Fatalf("accounting: attempts %d, retries %d", r.Rel.Attempts, r.Rel.Retries)
	}
}
