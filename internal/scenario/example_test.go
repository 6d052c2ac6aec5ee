package scenario_test

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/scenario"
)

// Example loads a scenario file and runs its full sweep — the programmatic
// equivalent of `medea-scenarios examples/scenarios/smoke.json`. Results
// arrive in deterministic axis order regardless of how many workers
// executed the points.
func Example() {
	s, err := scenario.Load("../../examples/scenarios/smoke.json")
	if err != nil {
		panic(err)
	}
	results, err := scenario.RunCtx(context.Background(), s)
	if err != nil {
		panic(err)
	}
	for _, r := range results {
		fmt.Printf("%s @ %.2f: delivered %d flits, %.1f-cycle mean latency\n",
			r.Pattern, r.Rate, r.Delivered, r.MeanLatency)
	}
	// Output:
	// uniform @ 0.10: delivered 1595 flits, 2.3-cycle mean latency
	// tornado @ 0.10: delivered 1586 flits, 2.0-cycle mean latency
}

// ExampleParseWorkload shows the workload registry: every kind resolves
// by name (case-insensitive, "_" accepted for "-"), exactly like the
// network's router and topology axes.
func ExampleParseWorkload() {
	k, err := scenario.ParseWorkload("MatMul")
	if err != nil {
		panic(err)
	}
	fmt.Println(k, k.IsKernel())
	fmt.Println(strings.Join(scenario.WorkloadNames(), ", "))
	// Output:
	// matmul true
	// jacobi, matmul, syncbench, noc-synthetic, trace, service
}

// Example_matmul sweeps the matmul kernel over the variants axis — the
// paper's message-passing vs shared-memory comparison — from inline JSON.
// Kernel runs take no seed, so the cycle counts are exact and permanent.
func Example_matmul() {
	s, err := scenario.Parse([]byte(`{
		"name": "mm",
		"workload": "matmul",
		"kernel": {"n": 16, "cores": [4], "cache_kb": [8], "variants": ["hybrid-full", "pure-sm"]}
	}`))
	if err != nil {
		panic(err)
	}
	results, err := scenario.RunCtx(context.Background(), s)
	if err != nil {
		panic(err)
	}
	for _, r := range results {
		fmt.Printf("%s %s on %d cores: %d cycles (%d moving B)\n",
			r.Workload, r.Variant, r.Cores, r.TotalCycles, r.TransferCycles)
	}
	// Output:
	// matmul hybrid-full on 4 cores: 108229 cycles (46594 moving B)
	// matmul pure-sm on 4 cores: 137784 cycles (71394 moving B)
}

// ExampleParse validates inline scenario JSON; typos and impossible
// configurations are rejected with actionable messages.
func ExampleParse() {
	_, err := scenario.Parse([]byte(`{
		"workload": "noc-synthetic",
		"noc": {"width": 5, "height": 3, "patterns": ["bit-reversal"], "rates": [0.1]}
	}`))
	fmt.Println(err)
	// Output:
	// "noc.patterns": noc: bit-reversal requires a power-of-two endpoint count; 5x3 torus = 15 is not
}
