// Package jacobi implements the paper's benchmark workload: a parallel
// Jacobi iterative solver for 2-D Laplace problems, in the three variants
// the evaluation compares:
//
//   - HybridFull: halo rows and synchronization both use the message-
//     passing path (the full MEDEA model);
//   - HybridSync: halo rows go through shared memory, synchronization uses
//     eMPI barriers;
//   - PureSM: halo rows through shared memory and a lock-based barrier in
//     shared memory — the conventional pure shared-memory model.
//
// The grid is partitioned into contiguous row blocks, one per rank, each
// stored in the rank's private (cacheable) memory segment with one halo
// row above and below. The solver runs warm-up iterations, then measures
// the cycle time of the following iterations barrier-to-barrier, matching
// the paper's "execution time for an iteration after cache warm-up".
package jacobi

import (
	"fmt"

	"repro/internal/enum"
)

// Variant selects the communication/synchronization style. It is the
// paper's central shared-memory vs message-passing axis and is shared by
// every kernel workload (jacobi, matmul, syncbench); ParseVariant resolves
// it by name through an enum.Table, as noc.ParseRouter does the network
// axes.
type Variant int

const (
	// HybridFull exchanges data and synchronization over the NoC message
	// path (the headline MEDEA configuration).
	HybridFull Variant = iota
	// HybridSync exchanges data through shared memory but synchronizes
	// with eMPI message barriers.
	HybridSync
	// PureSM uses shared memory for everything, with a lock-based
	// sense-reversing barrier at the MPMMU.
	PureSM

	// numVariants counts the defined variants (keep it last).
	numVariants
)

var variants = enum.New[Variant]("jacobi", "variant", []string{
	HybridFull: "hybrid-full",
	HybridSync: "hybrid-sync",
	PureSM:     "pure-sm",
})

// AllVariants returns every defined variant in declaration order.
func AllVariants() []Variant { return variants.All() }

// VariantNames returns the canonical names of every variant, for flag
// documentation and error messages.
func VariantNames() []string { return variants.Names() }

// ParseVariant resolves a variant from its canonical name (as printed by
// Variant.String) or its numeric value, by the rules of enum.Table.Parse.
func ParseVariant(s string) (Variant, error) { return variants.Parse(s) }

// String implements fmt.Stringer.
func (v Variant) String() string { return variants.String(v) }

// Spec describes one Jacobi problem. The key tags name its fields in
// the result-cache key (resultcache.KeyBuilder.Struct).
type Spec struct {
	// N is the grid edge: the paper uses 16, 30 and 60.
	N int `key:"n"`
	// Warmup iterations run before measurement (cache warm-up).
	Warmup int `key:"warmup"`
	// Measured iterations are timed barrier-to-barrier.
	Measured int `key:"measured"`
}

// Validate reports specification errors.
func (s Spec) Validate() error {
	if s.N < 4 {
		return fmt.Errorf("jacobi: grid %d too small (need N >= 4)", s.N)
	}
	if s.Warmup < 0 || s.Measured < 1 {
		return fmt.Errorf("jacobi: need measured >= 1 and warmup >= 0")
	}
	return nil
}

// Iterations returns the total number of iterations executed.
func (s Spec) Iterations() int { return s.Warmup + s.Measured }

// Block is one rank's contiguous share of the interior rows.
type Block struct {
	Rank int
	// Row0 is the first interior row owned (grid coordinates); Rows is
	// the number of owned rows (0 for surplus ranks when P exceeds the
	// interior row count, as happens for 16x16 grids on many cores).
	Row0, Rows int
}

// Active reports whether the rank owns any rows.
func (b Block) Active() bool { return b.Rows > 0 }

// Partition splits the N-2 interior rows over p ranks, giving earlier
// ranks one extra row when the division is uneven, so inactive ranks (if
// any) are always the trailing ones.
func Partition(n, p int) []Block {
	interior := n - 2
	base := interior / p
	extra := interior % p
	blocks := make([]Block, p)
	row := 1
	for r := 0; r < p; r++ {
		rows := base
		if r < extra {
			rows++
		}
		blocks[r] = Block{Rank: r, Row0: row, Rows: rows}
		row += rows
	}
	return blocks
}

// InitialGrid returns the starting grid: a hot top boundary (100.0), cold
// remaining boundaries and a zero interior — a standard Laplace test
// problem whose solution is smooth and non-trivial.
func InitialGrid(n int) [][]float64 {
	g := make([][]float64, n)
	for i := range g {
		g[i] = make([]float64, n)
	}
	for j := 0; j < n; j++ {
		g[0][j] = 100.0
	}
	return g
}

// Reference runs iters Jacobi iterations sequentially and returns the
// resulting grid. It is the functional oracle for every parallel variant.
func Reference(n, iters int) [][]float64 {
	old := InitialGrid(n)
	nw := InitialGrid(n)
	for it := 0; it < iters; it++ {
		for i := 1; i < n-1; i++ {
			for j := 1; j < n-1; j++ {
				nw[i][j] = 0.25 * (old[i-1][j] + old[i+1][j] + old[i][j-1] + old[i][j+1])
			}
		}
		old, nw = nw, old
	}
	return old
}
