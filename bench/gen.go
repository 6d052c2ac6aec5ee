package main

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Input generation: everything --seed decides, and nothing else does.
// The program under test only ever sees the scenario-JSON bytes made
// here. Seed 1 is the development seed; seed 2 is held back, and a later
// performance claim must hold on it too.
//
// Every seeded choice is meant to leave the amount of work unchanged, so
// that runs with different seeds measure the same thing: traffic seeds
// pick another sample of the same distribution, the job mix is another
// order of the same 30/70 split, and the L1 pair is drawn from sizes on
// which a kernel-sweep pass costs the same within the host's noise (8 kB
// is left out of the small set because the N=30 working set half fits in
// it and a pass gets 13 % cheaper).

var (
	smallL1KB = []int{2, 4}
	largeL1KB = []int{16, 32, 64}
	routers   = []string{"deflection", "xy", "adaptive", "wormhole"}
	fabrics   = []string{"torus", "mesh", "cmesh"}
	satRates  = []float64{0.4, 0.6}

	jobRouters  = []string{"deflection", "xy"}
	jobPatterns = []string{"uniform", "transpose"}
)

const (
	jobRate   = 0.2
	hitShare  = 0.3
	jobPoints = 4 // len(jobRouters) * len(jobPatterns)
)

type inputs struct {
	seed        int64
	sz          sizes
	l1          [2]int // small, large
	trafficSeed int64
	kernel      []byte
	saturated   []byte
	idle        []byte
	popularSeed int64 // popular scenario k carries base_seed popularSeed+k
	freshSeed   int64 // fresh job n carries base_seed freshSeed+n
}

// mix is splitmix64 over (seed, stream): independent, well-spread values
// for every seed including 0, so no seed degenerates.
func mix(seed int64, stream uint64) uint64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + (stream+1)*0xD1B54A32D192ED03
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func generate(seed int64, sz sizes) *inputs {
	in := &inputs{
		seed:        seed,
		sz:          sz,
		l1:          [2]int{smallL1KB[mix(seed, 0)%uint64(len(smallL1KB))], largeL1KB[mix(seed, 1)%uint64(len(largeL1KB))]},
		trafficSeed: 1 + int64(mix(seed, 2)%(1<<30)),
		// Disjoint ranges: a fresh job can never collide with a popular
		// scenario and turn a miss into a hit.
		popularSeed: 1 + int64(mix(seed, 3)%(1<<30)),
		freshSeed:   1<<32 + int64(mix(seed, 4)%(1<<30)),
	}
	in.kernel = []byte(fmt.Sprintf(
		`{"name":"kernel-sweep","workloads":["jacobi","matmul","syncbench"],`+
			`"kernel":{"n":%d,"variants":["hybrid-full","pure-sm"],"cores":%s,"cache_kb":[%d,%d],`+
			`"policies":["write-back"],"rounds":%d,"warmup":1,"measured":1},"parallelism":2}`,
		sz.kernelN, jsonList(sz.kernelCores), in.l1[0], in.l1[1], sz.syncRounds))
	in.saturated = nocSweep("noc-saturated", satRates, sz.nocWarmup, sz.satMeasure, in.trafficSeed)
	in.idle = nocSweep("noc-idle", sz.idleRates, sz.nocWarmup, sz.idleCycles, in.trafficSeed)
	return in
}

func nocSweep(name string, rates []float64, warmup, measure, seed int64) []byte {
	return []byte(fmt.Sprintf(
		`{"name":%q,"workload":"noc-synthetic","noc":{"width":4,"height":4,"topologies":%s,"routers":%s,`+
			`"patterns":["uniform"],"rates":%s,"warmup_cycles":%d,"measure_cycles":%d},"base_seed":%d,"parallelism":2}`,
		name, jsonList(fabrics), jsonList(routers), jsonList(rates), warmup, measure, seed))
}

// job is one serve-mixed submission: four small NoC points. Two jobs with
// the same trafficSeed are the same points under another name, which is
// what makes the second a pure cache hit.
func (in *inputs) job(name string, trafficSeed int64) []byte {
	return []byte(fmt.Sprintf(
		`{"name":%q,"workload":"noc-synthetic","noc":{"width":4,"height":4,"routers":%s,"patterns":%s,`+
			`"rates":[%g],"warmup_cycles":%d,"measure_cycles":%d},"base_seed":%d,"parallelism":1}`,
		name, jsonList(jobRouters), jsonList(jobPatterns), jobRate, in.sz.jobWarmup, in.sz.jobMeasure, trafficSeed))
}

// jobSpec says what one slot of a round submits: popular >= 0 re-submits
// that pre-warmed scenario (a hit), otherwise the job is fresh (a miss).
type jobSpec struct {
	popular     int
	trafficSeed int64
}

func (j jobSpec) hit() bool { return j.popular >= 0 }

// round lays out one round's jobs: exactly hitShare of them hits, in an
// order and with popular picks drawn from the seed. A fixed count, not a
// coin per job, so every round carries the same work.
func (in *inputs) round(r int) []jobSpec {
	n := in.sz.serveJobs
	hits := int(hitShare*float64(n) + 0.5)
	jobs := make([]jobSpec, n)
	rng := mix(in.seed, 1000+uint64(r))
	next := func(bound int) int {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(bound))
	}
	for i := range jobs {
		if i < hits {
			k := next(in.sz.servePopular)
			jobs[i] = jobSpec{popular: k, trafficSeed: in.popularSeed + int64(k)}
		} else {
			jobs[i] = jobSpec{popular: -1, trafficSeed: in.freshSeed + int64(r*n+i)}
		}
	}
	for i := n - 1; i > 0; i-- {
		j := next(i + 1)
		jobs[i], jobs[j] = jobs[j], jobs[i]
	}
	return jobs
}

func jsonList(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // slices of numbers and strings always marshal
	}
	return strings.ReplaceAll(string(b), " ", "")
}
