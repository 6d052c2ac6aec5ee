package noc

import (
	"context"
	"fmt"

	"repro/internal/flit"
	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/stats"
)

// ServiceMeasureConfig parameterizes one request/response service
// measurement point. The last Servers endpoints act as servers; every
// other endpoint is a client issuing open-loop request flits at
// ArrivalRate (optionally burst-modulated, optionally skewed toward the
// first server) and awaiting ResponseFlits response flits per request.
type ServiceMeasureConfig struct {
	Router RouterKind
	// Servers is how many endpoints (the highest-numbered ones) serve
	// requests. Must leave at least one client.
	Servers int
	// ArrivalRate is the per-client request probability per cycle
	// (open-loop: clients do not wait for outstanding responses).
	ArrivalRate float64
	// ThinkTime is the server-side service time per request in cycles.
	// 0 and 1 are equivalent: a response is emitted no earlier than the
	// step after its request is accepted.
	ThinkTime int64
	// ResponseFlits is the response size in flits (default 1).
	ResponseFlits int
	// HotspotSkew is the probability a request targets the first server
	// instead of a uniformly random one (0 = uniform over servers).
	HotspotSkew float64
	// QueueCap bounds each client's source queue (default 16); when full
	// the client throttles the arrival instead of issuing it.
	QueueCap int
	// Burst, when non-nil, gates client arrivals through the two-state
	// modulator, exactly as TrafficConfig.Burst gates synthetic traffic.
	Burst *BurstConfig
	// Warmup cycles run before measurement starts (may be 0).
	Warmup int64
	// Measure is the measurement-window length in cycles (must be > 0).
	Measure int64
	// Seed seeds every client (deterministic per seed).
	Seed int64
}

// ServiceMeasurement is the flat, CSV-friendly result of one service
// measurement window. Count fields are window deltas except InFlight,
// which is the absolute number of open requests when the window ends;
// with Warmup=0, Issued == Completed + InFlight exactly (request
// conservation, asserted by the property tests). The four latency
// breakdown components sum to the end-to-end latency per request by
// construction.
type ServiceMeasurement struct {
	Cycles    int64
	Issued    int64 // requests issued in the window
	Completed int64 // requests fully answered in the window
	InFlight  int64 // requests still open at window end
	Throttled int64 // arrivals dropped at a full client queue
	// Throughput is completed requests per client per cycle.
	Throughput float64
	// Breakdown means over requests completed in the window:
	// client-queue wait, request network traversal, server queueing plus
	// service, and response network traversal. They sum to MeanLatency.
	MeanQueue   float64
	MeanNetOut  float64
	MeanServer  float64
	MeanNetBack float64
	MeanLatency float64 // end-to-end request latency mean
	P99Latency  float64 // end-to-end request latency p99
	P99Server   float64 // server-component p99 (the hotspot-skew signal)
	PeakBuffer  int
	// CyclesSkipped counts fast-forwarded window cycles; purely a
	// performance counter, excluded from rendered rows and cache codecs
	// like its Measurement counterpart.
	CyclesSkipped int64
}

// svcRequest tracks one request's lifecycle stamps. Cycle 0 is a valid
// stamp, so unset stamps are -1.
type svcRequest struct {
	create     int64 // arrival accepted into the client queue
	inject     int64 // request flit left the client queue
	arrive     int64 // request flit delivered at the server
	respInject int64 // response emitted into the server queue
	done       int64 // last response flit delivered at the client
	gotFlits   int   // response flits received so far
}

// svcBoard is the engine-thread-only scoreboard shared by all clients and
// servers of one rig: open requests by id, lifetime counters, and the
// per-window observation hooks (attached fresh per measurement window,
// like Network.Stats.LatencySample). pending is only ever indexed by
// request id — never iterated — so map order cannot leak into results.
type svcBoard struct {
	pending   map[uint32]*svcRequest
	issued    stats.Counter
	completed stats.Counter
	throttled stats.Counter

	e2e     *stats.CycleSample // end-to-end latency
	server  *stats.CycleSample // server component (p99 wanted)
	queue   *stats.Running     // client-queue component
	netOut  *stats.Running     // request-path network component
	netBack *stats.Running     // response-path network component

	// onComplete, when non-nil, sees every completed request's stamps
	// (the breakdown property tests hook it).
	onComplete func(svcRequest)
}

func newSvcBoard() *svcBoard {
	return &svcBoard{pending: map[uint32]*svcRequest{}}
}

// complete finalizes a request whose last response flit arrived at now.
func (b *svcBoard) complete(id uint32, req *svcRequest, now int64) {
	req.done = now
	delete(b.pending, id)
	b.completed.Inc()
	if b.e2e != nil {
		b.e2e.Observe(req.done - req.create)
		b.server.Observe(req.respInject - req.arrive)
		b.queue.Observe(float64(req.inject - req.create))
		b.netOut.Observe(float64(req.arrive - req.inject))
		b.netBack.Observe(float64(req.done - req.respInject))
	}
	if b.onComplete != nil {
		b.onComplete(*req)
	}
}

// reqIDSeqBits is how many id bits carry the per-client sequence number;
// the client id occupies the bits above. A request id collides only if a
// single request stays open across 2^20 later arrivals from the same
// client — unreachable in any bounded-horizon run.
const reqIDSeqBits = 20

// svcClient is a client endpoint: an open-loop request source (gated by
// the same pre-drawn injectGate as TrafficNode, so it sleeps from one
// arrival to the next) and the sink for its own responses.
type svcClient struct {
	id    int
	topo  Topology
	cfg   ServiceMeasureConfig
	board *svcBoard
	rng   *sim.RNG
	inj   injectGate
	skew  sim.Coin // heads: the request goes to the first server
	outQ  *queue.FIFO[flit.Flit]
	now   int64
	seq   uint32
	pktID uint64

	// The arrival gate is the client's only input: returning responses
	// only update the board.
	portWakes
}

func newSvcClient(id int, topo Topology, cfg ServiceMeasureConfig, board *svcBoard) *svcClient {
	c := &svcClient{
		id: id, topo: topo, cfg: cfg, board: board,
		rng:  sim.NewRNG(cfg.Seed ^ int64(id)*0x9E37),
		skew: sim.NewCoin(cfg.HotspotSkew),
		outQ: queue.NewFIFO[flit.Flit](cfg.QueueCap),
	}
	var burst *BurstModulator
	if cfg.Burst != nil {
		burst = NewBurstModulator(*cfg.Burst, cfg.Seed^int64(id)*0x9E37^0x5B75)
	}
	c.inj = newInjectGate(c.rng, cfg.ArrivalRate, burst)
	return c
}

// Name implements sim.Component.
func (c *svcClient) Name() string { return fmt.Sprintf("svc-client(%d)", c.id) }

// chooseServer draws this request's server: a skew coin toward the first
// server, then a uniform draw over all servers. Both draws come from the
// client's main RNG, in a fixed order, so the stream is deterministic.
func (c *svcClient) chooseServer() int {
	first := c.topo.NumEndpoints() - c.cfg.Servers
	if c.skew != 0 && c.rng.Flip(c.skew) {
		return first
	}
	return first + c.rng.Intn(c.cfg.Servers)
}

// Step implements sim.Component: one open-loop arrival attempt per cycle.
func (c *svcClient) Step(now int64) {
	c.now = now
	if !c.inj.gate(now) {
		if c.outQ.Len() == 0 && !c.inj.dense {
			c.wake.Idle()
		}
		return
	}
	if c.outQ.Full() {
		c.board.throttled.Inc()
		return
	}
	dst := c.chooseServer()
	dx, dy := c.topo.EndpointCoord(dst)
	c.seq++
	id := uint32(c.id)<<reqIDSeqBits | c.seq&(1<<reqIDSeqBits-1)
	c.pktID++
	f := flit.Flit{
		DstX: uint8(dx), DstY: uint8(dy),
		Type: flit.Message, Sub: flit.SubMsgReq,
		Src:  uint8(c.id & flit.MaxSrc),
		Data: id,
	}
	f.Meta.InjectCycle = now
	f.Meta.PacketID = uint64(c.id)<<40 | c.pktID
	c.outQ.Push(f)
	c.puller.Wake()
	c.board.pending[id] = &svcRequest{create: now, inject: -1, arrive: -1, respInject: -1, done: -1}
	c.board.issued.Inc()
}

// TryPull implements LocalPort, stamping the queue→network handoff.
func (c *svcClient) TryPull() (flit.Flit, bool) {
	f, ok := c.outQ.Pop()
	if !ok {
		return f, false
	}
	if req, ok := c.board.pending[f.Data]; ok {
		req.inject = c.now
	}
	return f, true
}

// Deliver implements LocalPort: response flits come home. The request
// completes when its last response flit lands.
func (c *svcClient) Deliver(f flit.Flit, now int64) {
	req, ok := c.board.pending[f.Data]
	if !ok {
		return
	}
	req.gotFlits++
	if req.gotFlits >= c.cfg.ResponseFlits {
		c.board.complete(f.Data, req, now)
	}
}

// Pending returns the current source-queue occupancy.
func (c *svcClient) Pending() int { return c.outQ.Len() }

// NextEvent implements sim.NextEventer (exact, via the pre-drawn gate).
func (c *svcClient) NextEvent(now int64) int64 {
	if c.outQ.Len() > 0 {
		return now
	}
	return c.inj.next(now)
}

// svcServer is a server endpoint: requests queue in arrival order, are
// serviced one at a time for ThinkTime cycles, and answered with
// ResponseFlits flits. Both queues are unbounded — server overload shows
// up as latency (the hotspot-skew shape test measures exactly that), not
// as silent drops.
type svcServer struct {
	id    int
	topo  Topology
	cfg   ServiceMeasureConfig
	board *svcBoard
	workQ *queue.FIFO[uint32]
	outQ  *queue.FIFO[flit.Flit]
	busy  bool
	cur   uint32
	until int64
	pktID uint64

	// Requests arrive through Deliver, which wakes the server; the
	// think-time deadline is its own stamp.
	portWakes
}

func newSvcServer(id int, topo Topology, cfg ServiceMeasureConfig, board *svcBoard) *svcServer {
	return &svcServer{
		id: id, topo: topo, cfg: cfg, board: board,
		workQ: queue.NewFIFO[uint32](0),
		outQ:  queue.NewFIFO[flit.Flit](0),
	}
}

// Name implements sim.Component.
func (s *svcServer) Name() string { return fmt.Sprintf("svc-server(%d)", s.id) }

// Step implements sim.Component: finish the current request first, then
// accept the next. A request accepted at cycle T emits its response at
// max(T+ThinkTime, T+1) — the emit-then-accept order means ThinkTime 0
// and 1 behave identically, which the config documents.
func (s *svcServer) Step(now int64) {
	if s.busy && now >= s.until {
		req := s.board.pending[s.cur]
		req.respInject = now
		cx, cy := s.topo.EndpointCoord(int(s.cur >> reqIDSeqBits))
		for i := 0; i < s.cfg.ResponseFlits; i++ {
			s.pktID++
			f := flit.Flit{
				DstX: uint8(cx), DstY: uint8(cy),
				Type: flit.Message, Sub: flit.SubMsgData,
				Src:  uint8(s.id & flit.MaxSrc),
				Data: s.cur,
			}
			f.Meta.InjectCycle = now
			f.Meta.PacketID = uint64(s.id)<<40 | s.pktID
			s.outQ.Push(f)
		}
		s.puller.Wake()
		s.busy = false
	}
	if !s.busy {
		if id, ok := s.workQ.Pop(); ok {
			s.busy, s.cur, s.until = true, id, now+s.cfg.ThinkTime
		}
	}
	if s.outQ.Len() == 0 {
		s.wake.Idle() // thinking until s.until, or nothing to do
	}
}

// TryPull implements LocalPort.
func (s *svcServer) TryPull() (flit.Flit, bool) { return s.outQ.Pop() }

// Deliver implements LocalPort: a request flit arrives.
func (s *svcServer) Deliver(f flit.Flit, now int64) {
	if req, ok := s.board.pending[f.Data]; ok {
		req.arrive = now
	}
	s.workQ.Push(f.Data)
	s.wake.Wake()
}

// Pending returns the current response-queue occupancy.
func (s *svcServer) Pending() int { return s.outQ.Len() }

// NextEvent implements sim.NextEventer. The service completion time is
// known exactly, so an otherwise-quiet fabric can jump straight to it.
func (s *svcServer) NextEvent(now int64) int64 {
	if s.outQ.Len() > 0 || s.workQ.Len() > 0 {
		return now
	}
	if s.busy {
		if s.until > now {
			return s.until
		}
		return now
	}
	return sim.NoEvent
}

// serviceRig is a built service rig ready to run.
type serviceRig struct {
	*measureRig
	board *svcBoard
}

func (sc *ServiceMeasureConfig) validate(topo Topology) error {
	n := topo.NumEndpoints()
	if sc.Servers < 1 {
		return fmt.Errorf("noc: service needs at least one server, got %d", sc.Servers)
	}
	if sc.Servers >= n {
		return fmt.Errorf("noc: %d servers on a %d-endpoint fabric must leave at least one client", sc.Servers, n)
	}
	if sc.ArrivalRate < 0 || sc.ArrivalRate > 1 {
		return fmt.Errorf("noc: service arrival rate must be in [0, 1], got %g", sc.ArrivalRate)
	}
	if sc.HotspotSkew < 0 || sc.HotspotSkew > 1 {
		return fmt.Errorf("noc: service hotspot skew must be in [0, 1], got %g", sc.HotspotSkew)
	}
	if sc.ThinkTime < 0 {
		return fmt.Errorf("noc: service think time must be >= 0, got %d", sc.ThinkTime)
	}
	if sc.Measure <= 0 {
		return fmt.Errorf("noc: service measure window must be positive, got %d", sc.Measure)
	}
	return nil
}

func buildServiceRig(ctx context.Context, topo Topology, sc ServiceMeasureConfig) (*serviceRig, error) {
	if sc.QueueCap <= 0 {
		sc.QueueCap = 16
	}
	if sc.ResponseFlits <= 0 {
		sc.ResponseFlits = 1
	}
	board := newSvcBoard()
	clients := topo.NumEndpoints() - sc.Servers
	rig, err := newRig(ctx, topo, sc.Router, sc.Warmup, func(i int) (LocalPort, sim.Component) {
		if i < clients {
			c := newSvcClient(i, topo, sc, board)
			return c, c
		}
		s := newSvcServer(i, topo, sc, board)
		return s, s
	})
	if err != nil {
		return nil, err
	}
	return &serviceRig{measureRig: rig, board: board}, nil
}

// window runs one measurement window on a warmed-up service rig.
func (r *serviceRig) window(ctx context.Context, topo Topology, sc ServiceMeasureConfig) (ServiceMeasurement, error) {
	b := r.board
	b.e2e, b.server = &stats.CycleSample{}, &stats.CycleSample{}
	b.queue, b.netOut, b.netBack = &stats.Running{}, &stats.Running{}, &stats.Running{}
	issued0 := b.issued.Value()
	completed0 := b.completed.Value()
	throttled0 := b.throttled.Value()
	skipped0 := r.e.CyclesSkipped()
	if err := r.e.RunCtx(ctx, sc.Measure); err != nil {
		return ServiceMeasurement{}, err
	}
	clients := topo.NumEndpoints() - sc.Servers
	completed := b.completed.Value() - completed0
	return ServiceMeasurement{
		Cycles:        sc.Measure,
		Issued:        b.issued.Value() - issued0,
		Completed:     completed,
		InFlight:      int64(len(b.pending)),
		Throttled:     b.throttled.Value() - throttled0,
		Throughput:    float64(completed) / float64(sc.Measure) / float64(clients),
		MeanQueue:     b.queue.Mean(),
		MeanNetOut:    b.netOut.Mean(),
		MeanServer:    b.server.Mean(),
		MeanNetBack:   b.netBack.Mean(),
		MeanLatency:   b.e2e.Mean(),
		P99Latency:    b.e2e.Percentile(99),
		P99Server:     b.server.Percentile(99),
		PeakBuffer:    r.n.PeakBuffer(),
		CyclesSkipped: r.e.CyclesSkipped() - skipped0,
	}, nil
}

// MeasureServiceCtx simulates one (topology, router, service, seed)
// point: warm up, then measure one window of request/response traffic
// with per-request latency breakdowns.
func MeasureServiceCtx(ctx context.Context, topo Topology, sc ServiceMeasureConfig) (ServiceMeasurement, error) {
	if err := sc.validate(topo); err != nil {
		return ServiceMeasurement{}, err
	}
	r, err := buildServiceRig(ctx, topo, sc)
	if err != nil {
		return ServiceMeasurement{}, err
	}
	return r.window(ctx, topo, sc)
}
