// Package noctest checks the noc.LocalPort handoff on any implementation,
// for the packages that implement one: internal/noc's contract test runs
// it over the network's own endpoints, the arbiter in every mode and the
// memory node, internal/core's over its node interface.
package noctest

import (
	"reflect"
	"testing"

	"repro/internal/flit"
)

// Port is the injection half of noc.LocalPort, restated because this
// package cannot import noc (noc's own tests import it). The arbiter a
// compute node injects through implements only this half.
type Port interface {
	Front() *flit.Flit
	Drop()
}

// CheckHandoff drains p, which must offer flits whose payloads are want,
// in that order, and checks the contract on every handoff:
//   - two calls to Front return the same pointer and leave state() as it
//     was (state returns whatever Front must not move: a copy of the
//     port's fields, its counters, its turn, its stamps);
//   - Drop consumes exactly the flit Front showed, so the next Front
//     shows the next payload of want;
//   - a drained port's Front is nil, and moves nothing either.
func CheckHandoff(t testing.TB, p Port, want []uint32, state func() any) {
	t.Helper()
	for i, w := range want {
		before := state()
		f := p.Front()
		if f == nil {
			t.Fatalf("handoff %d: Front is nil with %d flits to go", i, len(want)-i)
		}
		if g := p.Front(); g != f {
			t.Fatalf("handoff %d: a second Front returned %p, the first %p", i, g, f)
		}
		if after := state(); !reflect.DeepEqual(before, after) {
			t.Fatalf("handoff %d: Front moved the port's state\nbefore %+v\nafter  %+v", i, before, after)
		}
		if f.Data != w {
			t.Fatalf("handoff %d: Front shows payload %#x, want %#x", i, f.Data, w)
		}
		p.Drop()
	}
	before := state()
	if f := p.Front(); f != nil {
		t.Fatalf("Front shows payload %#x after all %d flits were dropped, want nil", f.Data, len(want))
	}
	if after := state(); !reflect.DeepEqual(before, after) {
		t.Fatalf("Front on an empty port moved its state\nbefore %+v\nafter  %+v", before, after)
	}
}
