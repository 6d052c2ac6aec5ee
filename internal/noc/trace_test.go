package noc

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestVCDTracerProducesWaveform(t *testing.T) {
	topo, _ := NewTopology(4, 4)
	e := sim.NewEngine()
	n := NewRouterNetwork(e, topo, RouterDeflection)
	for i := 0; i < topo.NumNodes(); i++ {
		tn := NewTrafficNode(i, topo, TrafficConfig{Pattern: Uniform, Rate: 0.4}, 5)
		n.Attach(i, tn)
		e.Register(sim.PhaseNode, tn)
	}
	var b strings.Builder
	tr, err := NewVCDTracer(n, &b)
	if err != nil {
		t.Fatal(err)
	}
	tr.Attach(e)
	e.Run(200)
	out := b.String()
	if !strings.Contains(out, "$enddefinitions $end") {
		t.Fatal("missing VCD header")
	}
	if !strings.Contains(out, "sw_0_0_links") || !strings.Contains(out, "net_deflections") {
		t.Error("missing declared signals")
	}
	// Traffic must have produced value changes beyond the header.
	if !strings.Contains(out, "#1") {
		t.Error("no time steps recorded")
	}
	if len(out) < 1000 {
		t.Errorf("suspiciously small waveform (%d bytes)", len(out))
	}
}

func TestVCDTracerQuietNetwork(t *testing.T) {
	topo, _ := NewTopology(2, 2)
	e := sim.NewEngine()
	n := NewRouterNetwork(e, topo, RouterDeflection)
	var b strings.Builder
	tr, err := NewVCDTracer(n, &b)
	if err != nil {
		t.Fatal(err)
	}
	tr.Attach(e)
	e.Run(100)
	// With no traffic, after the initial values nothing changes: output
	// stays small (deduplication works).
	if len(b.String()) > 2500 {
		t.Errorf("idle network produced %d bytes of waveform", len(b.String()))
	}
}
