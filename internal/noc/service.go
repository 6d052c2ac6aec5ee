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
// The key tags are result-cache field names, as MeasureConfig's.
type ServiceMeasureConfig struct {
	Router RouterKind `key:"router"`
	// Servers is how many endpoints (the highest-numbered ones) serve
	// requests. Must leave at least one client.
	Servers int `key:"servers"`
	// ArrivalRate is the per-client request probability per cycle, in
	// (0, 1] (open-loop: clients do not wait for outstanding responses).
	ArrivalRate float64 `key:"arrival_rate"`
	// ThinkTime is the server-side service time per request in cycles.
	// 0 and 1 are equivalent: a response is emitted no earlier than the
	// step after its request is accepted. Validate resolves 0 to 1.
	ThinkTime int64 `key:"think_time"`
	// ResponseFlits is the response size in flits (0: 1).
	ResponseFlits int `key:"response_flits"`
	// HotspotSkew is the probability a request targets the first server
	// instead of a uniformly random one (0 = uniform over servers).
	HotspotSkew float64 `key:"hotspot_skew"`
	// QueueCap bounds each client's source queue (0: defaultQueueCap);
	// when full the client throttles the arrival instead of issuing it.
	QueueCap int `key:"queue_cap"`
	// Burst, when non-nil, gates client arrivals through the two-state
	// modulator, exactly as TrafficConfig.Burst gates synthetic traffic.
	Burst *BurstConfig
	// Warmup cycles run before measurement starts (may be 0).
	Warmup int64 `key:"warmup_cycles"`
	// Measure is the measurement-window length in cycles (must be > 0).
	Measure int64 `key:"measure_cycles"`
	// Seed seeds every client (deterministic per seed).
	Seed int64 `key:"seed"`
}

// ServiceMeasurement is the flat, CSV-friendly result of one service
// measurement window. Count fields are window deltas except InFlight,
// which is the absolute number of open requests when the window ends;
// with Warmup=0, Issued == Completed + InFlight exactly (request
// conservation, asserted by the property tests). The four latency
// breakdown components sum to the end-to-end latency per request by
// construction. It is also the scenario runner's cached value of a
// service point; the json tags are stored bytes, as Measurement's.
type ServiceMeasurement struct {
	Cycles    int64 `json:"cycles"`
	Issued    int64 `json:"issued"`    // requests issued in the window
	Completed int64 `json:"completed"` // requests fully answered in the window
	InFlight  int64 `json:"in_flight"` // requests still open at window end
	Throttled int64 `json:"throttled"` // arrivals dropped at a full client queue
	// Throughput is completed requests per client per cycle.
	Throughput float64 `json:"throughput"`
	// Breakdown means over requests completed in the window:
	// client-queue wait, request network traversal, server queueing plus
	// service, and response network traversal. They sum to MeanLatency.
	MeanQueue   float64 `json:"mean_queue"`
	MeanNetOut  float64 `json:"mean_net_out"`
	MeanServer  float64 `json:"mean_server"`
	MeanNetBack float64 `json:"mean_net_back"`
	MeanLatency float64 `json:"mean_latency"` // end-to-end request latency mean
	P99Latency  float64 `json:"p99_latency"`  // end-to-end request latency p99
	P99Server   float64 `json:"p99_server"`   // server-component p99 (the hotspot-skew signal)
	PeakBuffer  int     `json:"peak_buffer"`
	// CyclesSkipped counts fast-forwarded window cycles; purely a
	// performance counter, excluded from rendered rows and the stored
	// value like its Measurement counterpart.
	CyclesSkipped int64 `json:"-"`
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
	queue   *stats.IntRunning  // client-queue component
	netOut  *stats.IntRunning  // request-path network component
	netBack *stats.IntRunning  // response-path network component

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
		b.queue.Observe(req.inject - req.create)
		b.netOut.Observe(req.arrive - req.inject)
		b.netBack.Observe(req.done - req.respInject)
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
	cfg   ServiceMeasureConfig
	board *svcBoard
	inj   injectGate
	skew  sim.Coin // heads: the request goes to the first server
	now   int64
	seq   uint32

	// The arrival gate is the client's only input: returning responses
	// only update the board.
	source
}

func newSvcClient(id int, topo Topology, cfg ServiceMeasureConfig, board *svcBoard) *svcClient {
	return &svcClient{
		cfg: cfg, board: board,
		inj:    newInjectGate(id, cfg.Seed, cfg.ArrivalRate, cfg.Burst),
		skew:   sim.NewCoin(cfg.HotspotSkew),
		source: newSource(id, topo, cfg.QueueCap),
	}
}

// Name implements sim.Component.
func (c *svcClient) Name() string { return fmt.Sprintf("svc-client(%d)", c.id) }

// chooseServer draws this request's server: a skew coin toward the first
// server, then a uniform draw over all servers. Both draws come from the
// client's main RNG, in a fixed order, so the stream is deterministic.
func (c *svcClient) chooseServer() int {
	first := c.topo.NumEndpoints() - c.cfg.Servers
	if c.skew != 0 && c.inj.rng.Flip(c.skew) {
		return first
	}
	return first + c.inj.rng.Intn(c.cfg.Servers)
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
	c.seq++
	id := uint32(c.id)<<reqIDSeqBits | c.seq&(1<<reqIDSeqBits-1)
	c.emit(c.chooseServer(), flit.SubMsgReq, id, now)
	c.board.pending[id] = &svcRequest{create: now, inject: -1, arrive: -1, respInject: -1, done: -1}
	c.board.issued.Inc()
}

// Drop implements LocalPort, stamping the queue→network handoff.
func (c *svcClient) Drop() {
	if req, ok := c.board.pending[c.outQ.Front().Data]; ok {
		req.inject = c.now
	}
	c.outQ.Drop()
}

// Deliver implements LocalPort: response flits come home. The request
// completes when its last response flit lands.
func (c *svcClient) Deliver(f *flit.Flit, now int64) {
	req, ok := c.board.pending[f.Data]
	if !ok {
		return
	}
	req.gotFlits++
	if req.gotFlits >= c.cfg.ResponseFlits {
		c.board.complete(f.Data, req, now)
	}
}

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
	cfg   ServiceMeasureConfig
	board *svcBoard
	workQ *queue.FIFO[uint32]
	busy  bool
	cur   uint32
	until int64

	// Requests arrive through Deliver, which wakes the server; the
	// think-time deadline is its own stamp.
	source
}

func newSvcServer(id int, topo Topology, cfg ServiceMeasureConfig, board *svcBoard) *svcServer {
	return &svcServer{
		cfg: cfg, board: board,
		workQ:  queue.NewFIFO[uint32](0),
		source: newSource(id, topo, 0),
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
		for i := 0; i < s.cfg.ResponseFlits; i++ {
			s.emit(int(s.cur>>reqIDSeqBits), flit.SubMsgData, s.cur, now)
		}
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

// Deliver implements LocalPort: a request flit arrives.
func (s *svcServer) Deliver(f *flit.Flit, now int64) {
	if req, ok := s.board.pending[f.Data]; ok {
		req.arrive = now
	}
	s.workQ.Push(f.Data)
	s.wake.Wake()
}

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

// Validate checks every per-point bound of sc on topo and then resolves
// its defaults in place (queue cap 0 to defaultQueueCap, response flits
// 0 to 1, think time 0 to its equivalent 1), so two configs that simulate
// alike are equal afterwards and key alike. Validating a resolved config
// changes nothing.
func (sc *ServiceMeasureConfig) Validate(topo Topology) error {
	if n := topo.NumEndpoints(); sc.Servers < 1 || sc.Servers >= n {
		return fmt.Errorf("noc: %d servers on %d endpoints: a service needs at least one server and must leave at least one client; use at most %d servers",
			sc.Servers, n, n-1)
	}
	if err := checkSource("arrival_rate", sc.ArrivalRate, sc.QueueCap, sc.Burst); err != nil {
		return err
	}
	if !(sc.HotspotSkew >= 0 && sc.HotspotSkew <= 1) {
		return fmt.Errorf("noc: hotspot_skew must be in [0, 1], got %g", sc.HotspotSkew)
	}
	if sc.ThinkTime < 0 {
		return fmt.Errorf("noc: think_time must be >= 0, got %d", sc.ThinkTime)
	}
	if sc.ResponseFlits < 0 {
		return fmt.Errorf("noc: response_flits must be >= 0, got %d", sc.ResponseFlits)
	}
	if err := checkRig(sc.Router, sc.Warmup, sc.Measure); err != nil {
		return err
	}
	if sc.QueueCap == 0 {
		sc.QueueCap = defaultQueueCap
	}
	sc.ResponseFlits = max(sc.ResponseFlits, 1)
	sc.ThinkTime = max(sc.ThinkTime, 1)
	return nil
}

// buildServiceRig validates sc, resolving its defaults, and builds and
// warms its rig.
func buildServiceRig(ctx context.Context, topo Topology, sc ServiceMeasureConfig) (*serviceRig, error) {
	if err := sc.Validate(topo); err != nil {
		return nil, err
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
	b.queue, b.netOut, b.netBack = &stats.IntRunning{}, &stats.IntRunning{}, &stats.IntRunning{}
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
// with per-request latency breakdowns. A config that fails Validate is an
// error.
func MeasureServiceCtx(ctx context.Context, topo Topology, sc ServiceMeasureConfig) (ServiceMeasurement, error) {
	r, err := buildServiceRig(ctx, topo, sc)
	if err != nil {
		return ServiceMeasurement{}, err
	}
	return r.window(ctx, topo, sc)
}
