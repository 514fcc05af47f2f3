package ipc

import (
	"testing"

	"repro/internal/kernel"
	"repro/internal/sim"
)

// TestSocketMatchesSliceReference drives one socket from a single
// thread with a seeded random mix of sends and receives, mirroring
// every operation on a plain slice queue. Sends are issued only when
// the message fits (a lone thread that blocked on its own socket would
// never wake), so nothing blocks; receives are issued whenever the
// reference holds a message. After every operation the received
// message, the buffered byte count and Pending must equal the
// reference. Thousands of messages pass through a queue that never
// holds more than a few, so the ring wraps many times.
func TestSocketMatchesSliceReference(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		eng, m := newMachine(1)
		p := m.NewProcess("p")
		s := NewConn(1000).AtoB
		m.Spawn(p, "t", nil, func(th *kernel.Thread) {
			rng := sim.NewRand(seed)
			var ref []Message
			refBytes, next := 0, 0
			for step := 0; step < 3000; step++ {
				size := 1 + rng.Intn(400)
				if len(ref) == 0 || (rng.Intn(2) == 0 && refBytes+size <= 1000) {
					if refBytes+size > 1000 {
						size = 1000 - refBytes
					}
					msg := Message{Size: size, Payload: next}
					next++
					s.Send(th, msg)
					ref = append(ref, msg)
					refBytes += size
				} else {
					got := s.Recv(th)
					want := ref[0]
					ref = ref[1:]
					refBytes -= want.Size
					if got != want {
						t.Fatalf("seed %d step %d: Recv = %+v, want %+v", seed, step, got, want)
					}
				}
				if s.buffered != refBytes || s.Pending() != len(ref) {
					t.Fatalf("seed %d step %d: buffered %d pending %d, want %d and %d",
						seed, step, s.buffered, s.Pending(), refBytes, len(ref))
				}
			}
		})
		eng.Run()
	}
}

// TestSocketWriterBlocksAcrossWraparound streams a seeded sequence of
// messages from a writer into a 1000-byte socket that a slower reader
// drains. The writer must block whenever the next message does not fit
// behind the queued ones, so the buffer never exceeds its capacity; the
// reader must see the exact sequence, in order; and the socket must end
// empty. The stream is long enough to wrap the ring many times while
// writers are parked.
func TestSocketWriterBlocksAcrossWraparound(t *testing.T) {
	const capacity, count = 1000, 2000
	eng, m := newMachine(2)
	pa, pb := m.NewProcess("a"), m.NewProcess("b")
	s := NewConn(capacity).AtoB
	rng := sim.NewRand(3)
	sizes := make([]int, count)
	for i := range sizes {
		sizes[i] = 1 + rng.Intn(capacity/3)
	}
	check := func(where string) {
		if s.buffered < 0 || s.buffered > capacity {
			t.Fatalf("%s: buffered = %d, outside [0, %d]", where, s.buffered, capacity)
		}
	}
	blocked := 0
	m.Spawn(pa, "writer", m.CPUs[0], func(th *kernel.Thread) {
		for i, size := range sizes {
			s.Send(th, Message{Size: size, Payload: i})
			check("after Send")
		}
	})
	m.Spawn(pb, "reader", m.CPUs[1], func(th *kernel.Thread) {
		for i := 0; i < count; i++ {
			th.ExecUser(sim.Time(2000+rng.Intn(20000)) * sim.Nanosecond)
			if s.writers.Len() > 0 {
				blocked++
			}
			got := s.Recv(th)
			if got.Payload != i || got.Size != sizes[i] {
				t.Fatalf("message %d: got %+v, want size %d payload %d", i, got, sizes[i], i)
			}
			check("after Recv")
		}
	})
	eng.Run()
	if blocked < count/10 {
		t.Fatalf("writer was parked before only %d of %d receives; the test does not exercise blocking", blocked, count)
	}
	if s.buffered != 0 || s.Pending() != 0 {
		t.Fatalf("socket not empty at the end: buffered %d, pending %d", s.buffered, s.Pending())
	}
}
