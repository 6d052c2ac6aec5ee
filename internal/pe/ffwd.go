package pe

import "repro/internal/sim"

// NextEvent implements sim.NextEventer. The core's per-cycle obligations
// are its own state machine plus the two transmit paths it clocks from
// Step (the TIE send port and the bridge), so it can only be skipped when
// all three are provably idle:
//
//   - a halted core does nothing;
//   - a computing core (stBusy) next acts at busyUntil, and every skipped
//     cycle is a stall cycle (see Skipped);
//   - a core catching up on its program (stAhead) next acts at busyUntil
//     too, and owes nothing for the cycles in between: fetchOp charged the
//     whole stretch's stalls when it began;
//   - a core waiting on the bridge or on a message is passive until the
//     reply or packet is present — arrival happens inside a switch tick,
//     which the engine never skips over (in-flight flits keep their
//     switches, queues and link registers busy);
//   - fetching, sending, or a completed-but-unconsumed bridge transaction
//     mean work this very cycle.
func (p *Proc) NextEvent(now int64) int64 {
	if p.Port.SendBusy() || p.Bridge.Sending() {
		return now
	}
	switch p.st {
	case stHalted:
		return sim.NoEvent
	case stBusy, stAhead:
		return p.busyUntil
	case stBridge:
		if p.Bridge.Completed() {
			return now
		}
		return sim.NoEvent
	case stReceiving:
		if p.pending.kind == opRecvAny {
			if p.Port.HasRecvAny(p.pending.class) {
				return now
			}
		} else if p.Port.HasRecv(p.pending.src, p.pending.class) {
			return now
		}
		return sim.NoEvent
	}
	return now // stNeedOp, stSending
}

// Skipped implements sim.Skipper: every cycle Step would have spent
// waiting (on a compute burst, the bridge, or a receive) counts as a
// stall cycle exactly as if it had been ticked.
func (p *Proc) Skipped(from, to int64) {
	switch p.st {
	case stBusy, stBridge, stReceiving:
		p.Stats.StallCycles.Add(to - from)
	}
}
