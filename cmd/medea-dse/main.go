// Command medea-dse runs the paper's full 168-point design-space
// exploration (cores 3..16 counting the MPMMU, caches 2..64 kB, write-back
// and write-through) for one grid size and emits the results as a table, a
// Pareto/kill-rule analysis and optionally CSV.
//
// Example:
//
//	medea-dse -n 60 -csv fig6.csv
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/dse"
	"repro/internal/jacobi"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("medea-dse: ")

	n := flag.Int("n", 60, "Jacobi grid edge (16, 30 or 60)")
	csvPath := flag.String("csv", "", "write raw sweep points to this CSV file")
	variant := flag.String("variant", "hybrid-full", "hybrid-full | hybrid-sync | pure-sm")
	flag.Parse()

	o := dse.DefaultOptions(*n)
	v, err := jacobi.ParseVariant(*variant)
	if err != nil {
		log.Fatal(err)
	}
	o.Variant = v

	log.Printf("sweeping %d configurations on a %dx%d grid (%v)...",
		len(o.Cores)*len(o.CachesKB)*len(o.Policies), *n, *n, o.Variant)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	points, err := dse.SweepCtx(ctx, o)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println(dse.Fig6Table(points, fmt.Sprintf("Execution time (cycles/iteration), %dx%d array", *n, *n)))
	front := dse.ParetoFront(points)
	knee := dse.KillRuleKnee(front)
	fmt.Println(dse.ParetoTable(front, knee,
		fmt.Sprintf("Optimal speedup vs chip area (Pareto + kill rule), %dx%d array", *n, *n)))

	if *csvPath != "" {
		if err := os.WriteFile(*csvPath, []byte(dse.PointsCSV(points)), 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s", *csvPath)
	}
}
