package ring

import (
	"math/rand"
	"testing"
)

// TestDequeMatchesSliceReference drives a Deque and a plain slice with
// the same random push-back / pop-front / pop-back sequence and checks
// every popped value and every length against the slice. The sequences
// wrap the ring many times and cross several growths.
func TestDequeMatchesSliceReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q Deque[int]
		var ref []int
		next := 0
		for step := 0; step < 5000; step++ {
			switch r := rng.Intn(10); {
			case r < 5 || len(ref) == 0:
				q.PushBack(next)
				ref = append(ref, next)
				next++
			case r < 8:
				got, want := q.PopFront(), ref[0]
				ref = ref[1:]
				if got != want {
					t.Fatalf("seed %d step %d: PopFront = %d, want %d", seed, step, got, want)
				}
			default:
				got, want := q.PopBack(), ref[len(ref)-1]
				ref = ref[:len(ref)-1]
				if got != want {
					t.Fatalf("seed %d step %d: PopBack = %d, want %d", seed, step, got, want)
				}
			}
			if q.Len() != len(ref) {
				t.Fatalf("seed %d step %d: Len = %d, want %d", seed, step, q.Len(), len(ref))
			}
		}
	}
}

// TestDequeClearsPoppedSlots checks that a popped slot no longer holds
// its value, so a queue of pointers keeps nothing reachable.
func TestDequeClearsPoppedSlots(t *testing.T) {
	var q Deque[*int]
	a, b := new(int), new(int)
	q.PushBack(a)
	q.PushBack(b)
	q.PopFront()
	q.PopBack()
	for i, v := range q.buf {
		if v != nil {
			t.Fatalf("slot %d still holds a popped value", i)
		}
	}
}

// TestDequeSteadyStateAllocFree pins the point of the ring: once the
// buffer has reached the queue's high-water mark, push/pop cycles that
// wrap around it never allocate.
func TestDequeSteadyStateAllocFree(t *testing.T) {
	var q Deque[int]
	for i := 0; i < 6; i++ {
		q.PushBack(i)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		q.PushBack(1)
		q.PushBack(2)
		q.PopFront()
		q.PopBack()
	})
	if allocs != 0 {
		t.Fatalf("steady-state push/pop allocates %v objects per cycle, want 0", allocs)
	}
}

func TestDequePopEmptyPanics(t *testing.T) {
	for name, pop := range map[string]func(*Deque[int]){
		"PopFront": func(q *Deque[int]) { q.PopFront() },
		"PopBack":  func(q *Deque[int]) { q.PopBack() },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("pop on an empty deque did not panic")
				}
			}()
			var q Deque[int]
			pop(&q)
		})
	}
}
