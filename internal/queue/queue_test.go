package queue

import (
	"testing"
	"testing/quick"
)

func TestFIFOOrder(t *testing.T) {
	q := NewFIFO[int](0)
	for i := 0; i < 10; i++ {
		if !q.Push(i) {
			t.Fatal("unbounded push failed")
		}
	}
	for i := 0; i < 10; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("pop %d: got %v, %v", i, v, ok)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Error("pop from empty queue succeeded")
	}
}

func TestFIFOCapacity(t *testing.T) {
	q := NewFIFO[string](2)
	if !q.Push("a") || !q.Push("b") {
		t.Fatal("pushes within capacity failed")
	}
	if q.Push("c") {
		t.Error("push beyond capacity succeeded")
	}
	if !q.Full() {
		t.Error("queue should be full")
	}
	q.Pop()
	if q.Full() {
		t.Error("queue should have room after pop")
	}
	if !q.Push("c") {
		t.Error("push after pop failed")
	}
}

func TestFIFOPeek(t *testing.T) {
	q := NewFIFO[int](0)
	if _, ok := q.Peek(); ok {
		t.Error("peek on empty queue succeeded")
	}
	q.Push(7)
	v, ok := q.Peek()
	if !ok || v != 7 {
		t.Fatalf("peek got %v, %v", v, ok)
	}
	if q.Len() != 1 {
		t.Error("peek must not consume")
	}
}

func TestFIFOPeak(t *testing.T) {
	q := NewFIFO[int](0)
	q.Push(1)
	q.Push(2)
	q.Push(3)
	q.Pop()
	q.Pop()
	q.Push(4)
	if q.Peak() != 3 {
		t.Errorf("peak = %d, want 3", q.Peak())
	}
	if q.Cap() != 0 {
		t.Errorf("cap = %d, want 0", q.Cap())
	}
}

// TestFIFOWrapAroundAtCapacity exercises the ring boundary of a bounded
// queue: fill to capacity, drain partially, refill so the tail wraps past
// the end of the backing array, and verify order, Peek and Full at every
// step. Bounded queues allocate the ring once, so these pushes must never
// grow.
func TestFIFOWrapAroundAtCapacity(t *testing.T) {
	const cap = 4
	q := NewFIFO[int](cap)
	for i := 0; i < cap; i++ {
		if !q.Push(i) {
			t.Fatalf("push %d within capacity failed", i)
		}
	}
	if !q.Full() || q.Push(99) {
		t.Fatal("full queue accepted a push")
	}
	// Drain half: head moves to the middle of the ring.
	for i := 0; i < cap/2; i++ {
		if v, ok := q.Pop(); !ok || v != i {
			t.Fatalf("pop = %v, %v; want %d", v, ok, i)
		}
	}
	// Refill: tail wraps around the end of the backing array.
	for i := cap; i < cap+cap/2; i++ {
		if !q.Push(i) {
			t.Fatalf("push %d after partial drain failed", i)
		}
	}
	if !q.Full() {
		t.Error("queue should be full again after refill")
	}
	if v, ok := q.Peek(); !ok || v != cap/2 {
		t.Fatalf("peek across wrap = %v, %v; want %d", v, ok, cap/2)
	}
	// Full drain must come out in order across the wrap point.
	for i := cap / 2; i < cap+cap/2; i++ {
		if v, ok := q.Pop(); !ok || v != i {
			t.Fatalf("wrapped pop = %v, %v; want %d", v, ok, i)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Error("pop from drained queue succeeded")
	}
	if q.Peak() != cap {
		t.Errorf("peak = %d, want %d", q.Peak(), cap)
	}
}

// TestFIFOCapacityOne is the degenerate ring: every push lands on the same
// slot and head/tail wrap every operation.
func TestFIFOCapacityOne(t *testing.T) {
	q := NewFIFO[string](1)
	for round := 0; round < 3; round++ {
		if !q.Push("v") {
			t.Fatalf("round %d: push into empty cap-1 queue failed", round)
		}
		if q.Push("w") {
			t.Fatalf("round %d: cap-1 queue accepted a second element", round)
		}
		if v, ok := q.Pop(); !ok || v != "v" {
			t.Fatalf("round %d: pop = %v, %v", round, v, ok)
		}
	}
	if q.Len() != 0 || q.Peak() != 1 {
		t.Errorf("len=%d peak=%d, want 0/1", q.Len(), q.Peak())
	}
}

// TestFIFOGrowWithWrappedHead forces an unbounded queue to grow while its
// head sits mid-ring, verifying grow() linearizes the two segments in
// order.
func TestFIFOGrowWithWrappedHead(t *testing.T) {
	q := NewFIFO[int](0)
	// Fill the initial 4-slot ring, drain two, push two: head = 2 and the
	// ring wraps.
	for i := 0; i < 4; i++ {
		q.Push(i)
	}
	q.Pop()
	q.Pop()
	q.Push(4)
	q.Push(5)
	// Next push grows the ring from a wrapped state.
	q.Push(6)
	want := []int{2, 3, 4, 5, 6}
	for _, w := range want {
		if v, ok := q.Pop(); !ok || v != w {
			t.Fatalf("after grow: pop = %v, %v; want %d", v, ok, w)
		}
	}
	if q.Len() != 0 {
		t.Errorf("len = %d after full drain", q.Len())
	}
}

// TestFIFOQuick property-tests FIFO behaviour against a slice model.
func TestFIFOQuick(t *testing.T) {
	fn := func(ops []int16) bool {
		q := NewFIFO[int16](8)
		var model []int16
		for _, op := range ops {
			if op >= 0 { // push
				okQ := q.Push(op)
				okM := len(model) < 8
				if okQ != okM {
					return false
				}
				if okM {
					model = append(model, op)
				}
			} else { // pop
				v, ok := q.Pop()
				if ok != (len(model) > 0) {
					return false
				}
				if ok {
					if v != model[0] {
						return false
					}
					model = model[1:]
				}
			}
			if q.Len() != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestReserve(t *testing.T) {
	q := NewFIFO[int](0)
	q.Push(1)
	q.Push(2)
	q.Pop()
	q.Reserve(8)
	if v, ok := q.Pop(); !ok || v != 2 || q.Len() != 0 {
		t.Errorf("Reserve lost the queued element: got %d, %v, len %d", v, ok, q.Len())
	}
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < 8; i++ {
			q.Push(i)
		}
		for i := 0; i < 8; i++ {
			q.Pop()
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocations filling a reserved ring", allocs)
	}
	q.Reserve(4) // never shrinks
	for i := 0; i < 8; i++ {
		q.Push(i)
	}
	if q.Len() != 8 {
		t.Errorf("Len = %d after 8 pushes", q.Len())
	}
}

// Front and Drop are Peek and Pop in place: Front points at the element
// Pop would return, writes through it land in the queue, and Drop on an
// empty queue is a bug.
func TestFIFOFrontDrop(t *testing.T) {
	q := NewFIFO[int](3)
	if q.Front() != nil {
		t.Fatal("Front of an empty queue is not nil")
	}
	for round := 0; round < 5; round++ { // wraps the 3-slot ring
		q.Push(round)
		q.Push(round + 100)
		p := q.Front()
		if p == nil || *p != round {
			t.Fatalf("round %d: Front() = %v, want %d", round, p, round)
		}
		*p = -1
		if v, _ := q.Peek(); v != -1 {
			t.Fatalf("round %d: write through Front not seen by Peek: %d", round, v)
		}
		q.Drop()
		if v, ok := q.Pop(); !ok || v != round+100 {
			t.Fatalf("round %d: Pop after Drop = %d, %v; want %d", round, v, ok, round+100)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len() = %d after equal pushes and removals", q.Len())
	}
	defer func() {
		if recover() == nil {
			t.Error("Drop on an empty queue did not panic")
		}
	}()
	q.Drop()
}
