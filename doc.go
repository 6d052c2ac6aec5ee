// Package medea is the root of a from-scratch Go reproduction of
// "MEDEA: a Hybrid Shared-memory/Message-passing Multiprocessor NoC-based
// Architecture" (Tota, Casu, Ruo Roch, Rostagno, Zamboni — DATE 2010).
//
// The simulator, workloads and design-space exploration live under
// internal/ (see DESIGN.md for the system inventory and experiment
// index, README.md for the quickstart, and REPRODUCING.md for the
// figure/table-to-command map with expected golden values); runnable
// entry points are in cmd/ and examples/. Every experiment sweep is
// described declaratively as a JSON scenario file (internal/scenario,
// cmd/medea-scenarios, examples/scenarios/) rather than by writing new
// driver code, and each table and figure of the paper's evaluation is a
// render format of one (medea-scenarios -format fig6 ... kernel, over the
// files in examples/figures/; -format detail prints one simulation in
// full). The architecture ablations no scenario axis reaches are one
// table test, internal/jacobi's TestArchitectureAblations. Scenarios
// sweep four pluggable axes:
// workload (jacobi, matmul, syncbench, noc-synthetic) x programming-model
// variant x network topology x router. Every sweep — the figures, the kernel
// ablation, each scenario workload, one shard's subset of any of them —
// is a canonical job list plus a per-point function handed to one loop,
// par.Sweep (internal/par).
//
// # Performance
//
// Every figure in the evaluation is regenerated by running the
// cycle-accurate engine for millions of Ticks per configuration (168
// configurations for the full Fig 6 sweep), so per-cycle overhead
// multiplies across the whole benchmark suite. The hot path is organized
// around six ideas:
//
//   - Wake-driven stepping (internal/sim/sched.go): a cycle steps only the
//     components that have work. A component that found nothing to do
//     sleeps until its own next-event cycle, until a register it consumes
//     commits, or until whoever hands it work wakes it; in a kernel run
//     that is one core of twelve and none of the sixteen switches on most
//     cycles. When everything is asleep the clock jumps to the earliest
//     wake stamp — idle fast-forward is the same mechanism's all-asleep
//     case. A run whose context carries sim.WithoutFastForward steps
//     every component every cycle instead; the output is byte-identical,
//     which the differential batteries (scenario, noc, jacobi, matmul,
//     syncbench Test*FastForwardDifferential*,
//     noc.TestWakeDrivenStateDifferential) enforce with that run as the
//     reference.
//
//   - The PE handoff (internal/pe): a kernel is ordinary Go, run as a
//     coroutine its core switches to directly (iter.Pull) — no channel and
//     no second thread between them — and the operations nothing outside
//     the core can observe (compute, L1 hits under write-back,
//     invalidates: about seven in eight on the paper's kernels) retire on
//     the program's side without any switch, as a debt of cycles the core
//     works off before it starts the next operation that is issued.
//     pe.TestRunAheadDifferential compares that against handing back after
//     every operation; DESIGN.md, "PE handoff", has the table.
//
//   - Two-phase tick with dirty-register commit (internal/sim): each cycle
//     runs the awake components in phase order (nodes, then switches) and
//     then commits only the registers written during the cycle. A write
//     enqueues the register's index on a per-cycle dirty list (a
//     pointer-free int32 slice — no GC write barriers). A register is two
//     slots picked by the parity of the clock, so the commit moves no
//     value: it stamps the cycle the written slot is visible in, through
//     a value-independent header, without a call. Registers that were
//     valid but not rewritten expire lazily through that stamp compared
//     against the engine clock, so idle links cost nothing. The
//     determinism contract — identical cycle counts for identical
//     configurations — is unchanged and locked in by
//     internal/jacobi.TestDeterminismGolden.
//
//   - The busy tick (internal/noc): a saturated network skips nothing, so
//     a run costs what one hop of one flit costs. A switch arbitrates on
//     pointers to flits where they sit (Reg.Read, FIFO.Front) and copies
//     the winner once, into the output register's next slot (Reg.Write);
//     routing answers come from a per-switch table read off the Topology
//     at wiring time; and latencies, being whole cycles, are counted per
//     value (stats.CycleSample) instead of stored and sorted. DESIGN.md,
//     "Busy tick: the life of a flit", has the accounting;
//     noc.TestTickAllocFree holds all four routers to 0 allocations a tick.
//
//   - Ring-buffer FIFOs (internal/queue): every hardware queue (TIE ports,
//     bridge output, MPMMU request/data queues, arbiter FIFOs, traffic
//     sources, the XY switch's input queues) is a head/tail ring with amortized O(1) push and pop, so
//     the per-cycle drains stay constant-time at any occupancy.
//
//   - Allocation-free accessors (internal/cache, internal/memory): the
//     read/write paths used every cycle (ReadUint, ReadWord, ReadInto,
//     VictimInto, FlushLineInto, DDR.ReadInto) copy into caller-owned or
//     component-scratch buffers instead of allocating; the allocating
//     forms remain as thin wrappers for cold paths and tests.
//
// Micro-benchmarks cover each layer: BenchmarkTick (internal/noc, the
// per-cycle engine cost on the paper's 4x4 mesh, every router at several
// loads: -bench 'Tick/adaptive/load-0.40' -cpuprofile is one router's
// profile),
// BenchmarkHandoff (internal/pe, one operation on each path between a
// program and its core), BenchmarkFIFOPushPop (internal/queue) and
// BenchmarkCacheAccess (internal/cache, which must report 0 allocs/op on
// reads). Run them with
//
//	go test ./internal/... -bench . -run '^$' -benchmem
//
// The repository's benchmark proper — four workloads, end-to-end metrics
// and a per-layer probe for every package named above — is bench/:
//
//	bash bench/run.sh --workload kernel-sweep --trace 0   # end to end
//	bash bench/run.sh --workload kernel-sweep --trace 1   # per layer
//
// To profile the paper's figures without editing code, profile the test
// that runs every figure sweep once (Figs 6-9, T-1, T-2, S-1, K-1):
//
//	go test ./internal/scenario -run '^TestFigsGolden$' -cpuprofile cpu.prof -memprofile mem.prof
//	go tool pprof cpu.prof
package medea
