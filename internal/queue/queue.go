// Package queue provides a small generic FIFO used for the hardware queues
// of the MEDEA model (TIE ports, bridge output, MPMMU request/data queues,
// arbiter FIFOs). It tracks peak occupancy so buffer sizing can be audited.
//
// The backing store is a ring buffer: Push and Pop are amortized O(1), so
// the per-cycle drain performed by the bridge, MPMMU, arbiter and TIE
// ports costs the same regardless of occupancy (the previous slice-shift
// implementation made every Pop O(n)).
package queue

// FIFO is a first-in first-out queue. A capacity of 0 or less means
// unbounded. The zero value is an unbounded empty queue.
type FIFO[T any] struct {
	buf  []T // ring storage; len(buf) is the current ring size
	head int // index of the oldest element
	size int // number of elements
	cap  int
	peak int
}

// NewFIFO returns a FIFO with the given capacity (<= 0 for unbounded).
func NewFIFO[T any](capacity int) *FIFO[T] {
	q := &FIFO[T]{cap: capacity}
	if capacity > 0 {
		// Bounded queues never need to grow: allocate the ring once.
		q.buf = make([]T, capacity)
	}
	return q
}

// grow doubles the ring (minimum 4 slots), linearizing the elements.
func (q *FIFO[T]) grow() {
	n := 2 * len(q.buf)
	if n < 4 {
		n = 4
	}
	q.resize(n)
}

// Reserve makes room for n elements up front, so that an unbounded queue
// whose usual depth is known does not allocate while it gets there.
func (q *FIFO[T]) Reserve(n int) {
	if n > len(q.buf) {
		q.resize(n)
	}
}

// resize moves the elements to a fresh ring of n slots.
func (q *FIFO[T]) resize(n int) {
	buf := make([]T, n)
	copied := copy(buf, q.buf[q.head:])
	copy(buf[copied:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}

// Push appends v and reports whether there was room.
func (q *FIFO[T]) Push(v T) bool {
	p := q.PushSlot()
	if p == nil {
		return false
	}
	*p = v
	return true
}

// PushSlot appends a zero element and returns it in place, for a caller
// that fills it there instead of building a value to copy in; nil when
// the queue is full. The pointer is good until the next Push, PushSlot or
// Drop.
func (q *FIFO[T]) PushSlot() *T {
	if q.cap > 0 && q.size >= q.cap {
		return nil
	}
	if q.size == len(q.buf) {
		q.grow()
	}
	i := q.head + q.size
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	q.size++
	if q.size > q.peak {
		q.peak = q.size
	}
	return &q.buf[i]
}

// Pop removes and returns the oldest element.
func (q *FIFO[T]) Pop() (T, bool) {
	if q.size == 0 {
		var zero T
		return zero, false
	}
	v := q.buf[q.head]
	q.drop()
	return v, true
}

// Front returns the oldest element in place, or nil when the queue is
// empty. The pointer is good until the next Push, PushSlot or Drop.
func (q *FIFO[T]) Front() *T {
	if q.size == 0 {
		return nil
	}
	return &q.buf[q.head]
}

// Drop removes the oldest element, which must exist; with Front it is Pop
// for a caller that works on the element where it sits.
func (q *FIFO[T]) Drop() {
	if q.size == 0 {
		panic("queue: Drop on an empty FIFO")
	}
	q.drop()
}

// drop removes the oldest element of a non-empty queue.
func (q *FIFO[T]) drop() {
	var zero T
	q.buf[q.head] = zero // release the reference for GC
	q.head++
	if q.head == len(q.buf) {
		q.head = 0
	}
	q.size--
}

// Len returns the current occupancy.
func (q *FIFO[T]) Len() int { return q.size }

// Cap returns the configured capacity (<= 0 for unbounded).
func (q *FIFO[T]) Cap() int { return q.cap }

// Full reports whether a Push would fail.
func (q *FIFO[T]) Full() bool { return q.cap > 0 && q.size >= q.cap }

// Peak returns the highest occupancy ever observed.
func (q *FIFO[T]) Peak() int { return q.peak }

// Snap is a restorable copy of a FIFO's contents (oldest first) and its
// peak-occupancy watermark, for checkpoint/fork.
type Snap[T any] struct {
	items []T
	peak  int
}

// Snapshot captures the queue's current contents and peak watermark.
func (q *FIFO[T]) Snapshot() Snap[T] {
	s := Snap[T]{peak: q.peak}
	if q.size > 0 {
		s.items = make([]T, q.size)
		n := copy(s.items, q.buf[q.head:min(q.head+q.size, len(q.buf))])
		copy(s.items[n:], q.buf[:q.size-n])
	}
	return s
}

// Restore reinstates a snapshot taken from a queue with the same
// capacity, replacing the current contents.
func (q *FIFO[T]) Restore(s Snap[T]) {
	clear(q.buf)
	q.head, q.size = 0, 0
	if len(s.items) > len(q.buf) {
		q.buf = make([]T, len(s.items))
	}
	copy(q.buf, s.items)
	q.size = len(s.items)
	q.peak = s.peak
}
