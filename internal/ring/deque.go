// Package ring provides Deque, the power-of-two ring buffer behind the
// simulator's steady-state queues: socket message buffers, kernel wait
// and run queues, the OLTP ingress, inbox and gateway queues, and the L4
// endpoint's call queue.
//
// A slice popped with q = q[1:] loses capacity at the front, so under
// steady traffic nearly every append reallocates. A ring reuses its
// buffer: once it has grown to the queue's high-water mark, pushes and
// pops never allocate.
package ring

// Deque is a double-ended FIFO queue over a power-of-two ring buffer.
// The zero value is an empty deque ready to use. Popped slots are
// cleared, so a deque never keeps a popped value reachable.
type Deque[T any] struct {
	buf  []T // len(buf) is 0 or a power of two
	head int // index of the front element
	n    int // number of elements
}

// Len returns the number of queued elements.
func (q *Deque[T]) Len() int { return q.n }

// PushBack appends v at the back.
//
//dipcvet:noalloc
func (q *Deque[T]) PushBack(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// PopFront removes and returns the front (oldest) element. It panics
// on an empty deque.
//
//dipcvet:noalloc
func (q *Deque[T]) PopFront() T {
	if q.n == 0 {
		panic("ring: PopFront on empty deque")
	}
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// PopBack removes and returns the back (newest) element. It panics on
// an empty deque.
//
//dipcvet:noalloc
func (q *Deque[T]) PopBack() T {
	if q.n == 0 {
		panic("ring: PopBack on empty deque")
	}
	var zero T
	i := (q.head + q.n - 1) & (len(q.buf) - 1)
	v := q.buf[i]
	q.buf[i] = zero
	q.n--
	return v
}

// grow doubles the ring (minimum 8 slots), unwrapping the elements to
// the start of the new buffer.
func (q *Deque[T]) grow() {
	newCap := 2 * len(q.buf)
	if newCap == 0 {
		newCap = 8
	}
	nb := make([]T, newCap)
	mask := len(q.buf) - 1
	for i := 0; i < q.n; i++ {
		nb[i] = q.buf[(q.head+i)&mask]
	}
	q.buf = nb
	q.head = 0
}
