// Package coretest holds what the differential tests of the kernel
// packages and of internal/pe share: two runs that must not differ are
// compared on everything a run leaves behind in its system.
package coretest

import (
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/pe"
)

// Counters is everything a kernel run leaves behind that a scheduling
// change could get wrong without moving the verified result: the run
// length, every core's event and stall counts, every L1's counters, every
// memory node's busy cycles and the network's delivered flits.
type Counters struct {
	Cycles int64
	Procs  []pe.Stats
	L1     []cache.Stats
	Busy   []int64
	Flits  int64
}

// CountersOf reads the counters of a system after its run.
func CountersOf(sys *core.System) Counters {
	c := Counters{Cycles: sys.Cycles(), Flits: sys.Net.Stats.Delivered.Value()}
	for _, p := range sys.Procs {
		c.Procs = append(c.Procs, p.Stats)
		c.L1 = append(c.L1, p.Cache.Stats)
	}
	for _, u := range sys.MMUs {
		c.Busy = append(c.Busy, u.Stats.BusyCycles.Value())
	}
	return c
}
