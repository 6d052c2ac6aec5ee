package main

// sizes is the run-length table: how big each workload's pass is and how
// long each probe loops. Nothing on the command line changes it except
// -smoke, which swaps in the small table and stamps the output invalid.
// Pass sizes are chosen so that at least minRounds passes of every
// workload fit in the 20 s BENCHMARK.json gives a run on two cores.
type sizes struct {
	minRounds int // a run never reports a median over fewer passes
	setups    int // set-up is repeated this often and its median reported

	kernelN     int
	kernelCores []int
	syncRounds  int

	nocWarmup  int64
	satMeasure int64
	idleRates  []float64
	idleCycles int64

	serveJobs    int // jobs per round, 30 % of them hits
	servePopular int // pre-warmed scenarios the hits draw from
	jobWarmup    int64
	jobMeasure   int64

	engineTicks  int // sim.* probes
	ffwdCycles   int64
	routerTicks  int // noc.tick_ns.* probes
	handoffOps   int // pe.* probes
	cheapOps     int // sub-microsecond operations (keys, hits, Status)
	mediumOps    int // tens of microseconds (rig builds, HTTP round trips)
	parJobs      int
	fig8Cores    []int
	fig8CachesKB []int
	probeRepeats int
	calibrateMiB int
}

var fullSizes = sizes{
	minRounds: 7,
	setups:    3,

	kernelN:     30,
	kernelCores: []int{2, 4, 8, 12},
	syncRounds:  20,

	nocWarmup:  1000,
	satMeasure: 40000,
	idleRates:  []float64{0.001, 0.002},
	idleCycles: 1_500_000,

	serveJobs:    150,
	servePopular: 16,
	jobWarmup:    500,
	jobMeasure:   4000,

	engineTicks:  1_000_000,
	ffwdCycles:   100_000_000,
	routerTicks:  30_000,
	handoffOps:   100_000,
	cheapOps:     50_000,
	mediumOps:    300,
	parJobs:      100_000,
	fig8Cores:    []int{2, 4, 6, 8, 10, 12, 15},
	fig8CachesKB: []int{2, 4, 16, 32},
	probeRepeats: 3,
	calibrateMiB: 8,
}

var smokeSizes = sizes{
	minRounds: 2,
	setups:    1,

	kernelN:     16,
	kernelCores: []int{2, 4},
	syncRounds:  4,

	nocWarmup:  200,
	satMeasure: 1500,
	idleRates:  []float64{0.001, 0.002},
	idleCycles: 40000,

	serveJobs:    10,
	servePopular: 4,
	jobWarmup:    100,
	jobMeasure:   500,

	engineTicks:  5000,
	ffwdCycles:   200_000,
	routerTicks:  2000,
	handoffOps:   2000,
	cheapOps:     500,
	mediumOps:    5,
	parJobs:      1000,
	fig8Cores:    []int{2, 4},
	fig8CachesKB: []int{2, 16},
	probeRepeats: 1,
	calibrateMiB: 1,
}
