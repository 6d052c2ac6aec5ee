// Package core assembles a complete MEDEA system: the folded-torus NoC,
// one MPMMU memory node, and a set of processing elements each with an L1
// cache, a pif2NoC bridge, a TIE message-passing port and a configurable
// NoC-access arbiter. It is the primary public entry point of the library:
// build a Config, call Build, launch programs and run.
package core

import (
	"context"
	"fmt"

	"repro/internal/bridge"
	"repro/internal/cache"
	"repro/internal/flit"
	"repro/internal/memmap"
	"repro/internal/memory"
	"repro/internal/mpmmu"
	"repro/internal/noc"
	"repro/internal/pe"
	"repro/internal/sim"
	"repro/internal/tie"
)

// Config describes one point in the MEDEA design space.
type Config struct {
	// TorusW, TorusH size the folded torus (default 4x4, the paper's
	// configuration).
	TorusW, TorusH int
	// NumCompute is the number of compute cores (2..15 in the paper; one
	// further node is the MPMMU).
	NumCompute int
	// CacheKB sizes each core's L1 cache (2..64 in the paper).
	CacheKB int
	// CacheWays sets L1 associativity (0/1 = direct-mapped, the default
	// used by all calibrated experiments).
	CacheWays int
	// Policy selects write-back or write-through L1 caches.
	Policy cache.Policy
	// Arbiter selects the NoC-access arbiter configuration.
	Arbiter bridge.ArbiterMode
	// ArbFIFOCap sizes the arbiter staging FIFO(s) in the FIFO modes.
	ArbFIFOCap int
	// MPMMUNode is the first MPMMU's node id (default 0; compute cores
	// occupy the remaining ids).
	MPMMUNode int
	// NumMPMMUs is the number of memory nodes (default 1, the paper's
	// simplest implementation; the architecture supports more, with
	// shared-memory lines interleaved across them by the bridges'
	// configuration memories).
	NumMPMMUs int
	// MPMMUCacheKB sizes each MPMMU's local cache (default
	// DefaultMPMMUCacheKB).
	MPMMUCacheKB int
	// DDR is the backing-store latency model.
	DDR memory.LatencyModel
	// Cost is the core timing model.
	Cost pe.CostModel
	// PortFIFOCap sizes the TIE and bridge output FIFOs (default 4).
	PortFIFOCap int
	// Record, when non-nil, observes every message packet a TIE port
	// starts sending (trace capture; see tie.SendRecorder). Purely
	// observational, like noc.TrafficConfig.Record.
	Record tie.SendRecorder
}

// DefaultMPMMUCacheKB is the MPMMU cache size a Config that leaves
// MPMMUCacheKB zero gets, and the one the chip-area model counts.
const DefaultMPMMUCacheKB = 32

// DefaultConfig returns the baseline configuration used throughout the
// experiments: a 4x4 folded torus, write-back caches and the plain
// multiplexer arbiter.
func DefaultConfig(numCompute, cacheKB int, policy cache.Policy) Config {
	return Config{
		TorusW: 4, TorusH: 4,
		NumCompute: numCompute,
		CacheKB:    cacheKB,
		Policy:     policy,
	}
}

func (c Config) withDefaults() Config {
	if c.TorusW == 0 {
		c.TorusW = 4
	}
	if c.TorusH == 0 {
		c.TorusH = 4
	}
	if c.ArbFIFOCap == 0 {
		c.ArbFIFOCap = 8
	}
	if c.NumMPMMUs == 0 {
		c.NumMPMMUs = 1
	}
	if c.MPMMUCacheKB == 0 {
		c.MPMMUCacheKB = DefaultMPMMUCacheKB
	}
	if c.DDR == (memory.LatencyModel{}) {
		c.DDR = memory.DefaultLatency
	}
	if c.Cost == (pe.CostModel{}) {
		c.Cost = pe.DefaultCost
	}
	if c.PortFIFOCap == 0 {
		c.PortFIFOCap = 4
	}
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	cc := c.withDefaults()
	topo, err := noc.NewTopology(cc.TorusW, cc.TorusH)
	if err != nil {
		return err
	}
	if cc.NumCompute < 1 {
		return fmt.Errorf("core: need at least one compute core")
	}
	if cc.NumMPMMUs < 1 {
		return fmt.Errorf("core: need at least one MPMMU")
	}
	if cc.NumCompute+cc.NumMPMMUs > topo.NumNodes() {
		return fmt.Errorf("core: %d compute cores + %d MPMMUs exceed %d nodes",
			cc.NumCompute, cc.NumMPMMUs, topo.NumNodes())
	}
	if topo.NumNodes() > flit.MaxSrc+1 {
		return fmt.Errorf("core: %d nodes exceed the %d-node limit of the source-id field",
			topo.NumNodes(), flit.MaxSrc+1)
	}
	if cc.MPMMUNode < 0 || cc.MPMMUNode >= topo.NumNodes() {
		return fmt.Errorf("core: MPMMU node %d out of range", cc.MPMMUNode)
	}
	if _, err := cache.New(cache.Config{
		SizeBytes: cc.CacheKB << 10, Policy: cc.Policy, Ways: cc.CacheWays,
	}); err != nil {
		return err
	}
	return nil
}

// System is a fully wired MEDEA instance.
type System struct {
	Cfg    Config
	Engine *sim.Engine
	Topo   noc.Topology
	Net    *noc.Network
	DDR    *memory.DDR
	MMUs   []*mpmmu.Unit
	Procs  []*pe.Proc // index = rank
	Map    memmap.Map

	mmuNodes []int // MPMMU node ids, index = memory-node number
	nodeOf   []int // rank -> node id
	arbiters []*bridge.Arbiter
}

// MMU returns the primary (first) memory node.
func (s *System) MMU() *mpmmu.Unit { return s.MMUs[0] }

// MMUFor returns the memory node serving addr: cache lines are
// interleaved across the MPMMUs by the bridges' configuration memories.
func (s *System) MMUFor(addr uint32) *mpmmu.Unit {
	return s.MMUs[s.mmuIndexFor(addr)]
}

func (s *System) mmuIndexFor(addr uint32) int {
	return int(addr/cache.LineBytes) % len(s.MMUs)
}

// MPMMUBusyTotal sums busy cycles across all memory nodes.
func (s *System) MPMMUBusyTotal() int64 {
	var n int64
	for _, u := range s.MMUs {
		n += u.Stats.BusyCycles.Value()
	}
	return n
}

// nodeIface demultiplexes flits arriving at a compute node: message flits
// go to the TIE port, everything else to the shared-memory bridge. The
// injection side is the node's arbiter. Both directions are wake paths:
// a delivered flit wakes the core that waits on it, and the arbiter wakes
// the switch while it holds flits to pull.
type nodeIface struct {
	arb  *bridge.Arbiter
	proc *pe.Proc
}

func (ni *nodeIface) Front() *flit.Flit { return ni.arb.Front() }
func (ni *nodeIface) Drop()             { ni.arb.Drop() }

// Pending exposes the arbiter's queued-flit count so the node's switch
// can tell whether injection work remains before it goes to sleep.
func (ni *nodeIface) Pending() int { return ni.arb.Pending() }

// WakeOnInject implements noc.InjectWaker through the arbiter.
func (ni *nodeIface) WakeOnInject(h *sim.Handle) { ni.arb.WakeOnInject(h) }

func (ni *nodeIface) Deliver(f *flit.Flit, now int64) {
	if f.Type == flit.Message {
		ni.proc.Port.Deliver(*f)
	} else {
		ni.proc.Bridge.Deliver(*f, now)
	}
	ni.proc.Wake()
}

// Build wires a system from a configuration.
func Build(cfg Config) (*System, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	topo, _ := noc.NewTopology(cfg.TorusW, cfg.TorusH)
	engine := sim.NewEngine()
	net := noc.NewRouterNetwork(engine, topo, noc.RouterDeflection)
	ddr := memory.NewDDR(cfg.DDR)

	coordOf := func(node int) (int, int) { return topo.Coord(node) }

	s := &System{
		Cfg:    cfg,
		Engine: engine,
		Topo:   topo,
		Net:    net,
		DDR:    ddr,
		Map:    memmap.DefaultMap(cfg.NumCompute),
	}

	// Spread the memory nodes evenly around the torus starting from
	// MPMMUNode, then fill the remaining node ids with compute cores.
	isMMU := make(map[int]bool, cfg.NumMPMMUs)
	for k := 0; k < cfg.NumMPMMUs; k++ {
		node := (cfg.MPMMUNode + k*topo.NumNodes()/cfg.NumMPMMUs) % topo.NumNodes()
		if isMMU[node] {
			return nil, fmt.Errorf("core: MPMMU placement collision at node %d", node)
		}
		isMMU[node] = true
		mmuCfg := mpmmu.DefaultConfig(node, cfg.NumCompute)
		mmuCfg.CacheKB = cfg.MPMMUCacheKB
		mmu, err := mpmmu.New(mmuCfg, ddr, coordOf)
		if err != nil {
			return nil, err
		}
		net.Attach(node, mmu)
		engine.Register(sim.PhaseNode, mmu)
		s.MMUs = append(s.MMUs, mmu)
		s.mmuNodes = append(s.mmuNodes, node)
	}
	// The bridges' configuration memory: line-interleave addresses over
	// the memory nodes.
	route := func(addr uint32) int { return s.mmuNodes[s.mmuIndexFor(addr)] }

	node := cfg.MPMMUNode
	for rank := 0; rank < cfg.NumCompute; rank++ {
		node = (node + 1) % topo.NumNodes()
		for isMMU[node] {
			node = (node + 1) % topo.NumNodes()
		}
		l1, err := cache.New(cache.Config{
			SizeBytes: cfg.CacheKB << 10, Policy: cfg.Policy, Ways: cfg.CacheWays,
		})
		if err != nil {
			return nil, err
		}
		brg := bridge.NewRouted(node, route, coordOf, cfg.PortFIFOCap)
		port := tie.NewPort(node, topo.NumNodes(), coordOf, cfg.PortFIFOCap, cfg.Record)
		proc := pe.NewProc(node, rank, l1, brg, port, cfg.Cost)
		arb := bridge.NewArbiter(fmt.Sprintf("arb%d", node), cfg.Arbiter, port.Out(), brg.Out(), cfg.ArbFIFOCap)
		proc.Arbiter = arb
		net.Attach(node, &nodeIface{arb: arb, proc: proc})
		engine.Register(sim.PhaseNode, proc)
		engine.Register(sim.PhaseNode, arb)
		s.Procs = append(s.Procs, proc)
		s.nodeOf = append(s.nodeOf, node)
		s.arbiters = append(s.arbiters, arb)
	}
	return s, nil
}

// NodeOf maps a rank to its NoC node id.
func (s *System) NodeOf(rank int) int { return s.nodeOf[rank] }

// RankNodes returns the rank-to-node mapping shared by all communicators.
func (s *System) RankNodes() []int { return append([]int(nil), s.nodeOf...) }

// Launch starts one program per compute core, by rank.
func (s *System) Launch(progs []pe.Program) {
	if len(progs) != len(s.Procs) {
		panic(fmt.Sprintf("core: %d programs for %d cores", len(progs), len(s.Procs)))
	}
	for i, p := range s.Procs {
		p.Launch(progs[i])
	}
}

// RunCtx ticks the system until every core's program has halted, the cycle
// budget is exhausted, or the context is canceled:
//
//   - cancellation is polled mid-simulation (every few thousand cycles),
//     so a canceled run stops in bounded wall time instead of at run
//     granularity;
//   - a program that failed (Env.Fail or a recovered panic; see pe.Launch)
//     stops the run at the next tick boundary rather than letting the
//     surviving cores spin against the cycle budget, and its error is
//     returned;
//   - on every early exit the remaining programs are stopped
//     (pe.Proc.Abort), so canceled, failed or timed-out runs leave no
//     coroutine behind (pe.TestAbandonedRunsLeakNothing);
//   - a run that otherwise completed fails if any TIE port saw a message
//     reassembly fault (IntegrityErrors), so no kernel reports cycles of
//     a run whose messages were corrupted.
func (s *System) RunCtx(ctx context.Context, maxCycles int64) error {
	err := s.Engine.RunUntilCtx(ctx, func() bool {
		allHalted := true
		for _, p := range s.Procs {
			if !p.Halted() {
				allHalted = false
				continue
			}
			if p.ProgramErr() != nil {
				return true // fail fast: stop the run at this tick
			}
		}
		return allHalted
	}, maxCycles)

	// Collect the first failed program by rank (deterministic: rank order,
	// not halt order).
	var progErr error
	for _, p := range s.Procs {
		if p.Halted() && p.ProgramErr() != nil {
			progErr = fmt.Errorf("core: rank %d: %w", p.Rank, p.ProgramErr())
			break
		}
	}
	if err == nil && progErr != nil {
		err = progErr
	}
	if err == nil {
		if n := s.IntegrityErrors(); n != 0 {
			return fmt.Errorf("core: %d message reassembly faults", n)
		}
	}
	if err != nil {
		// Unwind whatever is still running so no program outlives its
		// abandoned simulation.
		for _, p := range s.Procs {
			p.Abort()
		}
	}
	return err
}

// Cycles returns the cycle at which the last core finished.
func (s *System) Cycles() int64 {
	var max int64
	for _, p := range s.Procs {
		if p.FinishCycle() > max {
			max = p.FinishCycle()
		}
	}
	return max
}

// DrainCaches writes every dirty L1 and MPMMU cache line straight into the
// DDR image. It is a verification aid used after a run so functional
// results can be checked against a reference; it is not a simulated
// operation and costs no cycles.
func (s *System) DrainCaches() {
	var buf [cache.LineBytes]byte
	for _, p := range s.Procs {
		for _, addr := range p.Cache.DirtyLines() {
			if p.Cache.FlushLineInto(addr, buf[:]) {
				s.writeThroughMMU(addr, buf[:])
			}
		}
	}
	for _, u := range s.MMUs {
		u.FlushCache()
	}
}

// writeThroughMMU updates the owning MPMMU's cache image if the line is
// resident there, and DDR otherwise, preserving the single-owner invariant
// of the memory image.
func (s *System) writeThroughMMU(addr uint32, data []byte) {
	if u := s.MMUFor(addr); u.Cache().Probe(addr) {
		u.Cache().Write(addr, data)
		return
	}
	s.DDR.Write(addr, data)
}

// IntegrityErrors returns the count of message reassembly faults (double
// buffer overflows or mixed packets) across all TIE ports. A correct run
// reports zero; tests assert this.
func (s *System) IntegrityErrors() int64 {
	var n int64
	for _, p := range s.Procs {
		n += p.Port.Stats.Overflows.Value() + p.Port.Stats.Corrupted.Value()
	}
	return n
}
