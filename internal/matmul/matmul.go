// Package matmul implements the paper's stated future work — "porting and
// execution of standard parallel benchmarks" — with a second scientific
// kernel: a row-partitioned double-precision matrix multiply C = A x B on
// the MEDEA architecture, in the same three programming-model variants as
// the Jacobi solver:
//
//   - HybridFull: B is broadcast to every core over the message-passing
//     path; synchronization via eMPI.
//   - HybridSync: every core reads B from shared memory (DII + cached
//     loads); synchronization via eMPI.
//   - PureSM: B through shared memory, lock-based barrier in shared
//     memory.
//
// Each rank owns a contiguous block of A's rows (private, cacheable) and
// produces the matching rows of C. The workload has the opposite
// communication profile to Jacobi — one bulk all-to-one-to-all transfer
// instead of per-iteration halo exchange — so it exercises the bandwidth
// rather than the latency of the two data paths.
package matmul

import (
	"fmt"

	"repro/internal/jacobi"
)

// Spec describes one matrix-multiply problem: C = A x B with NxN doubles.
// The key tag names N in the result-cache key, as jacobi.Spec's.
type Spec struct {
	N int `key:"n"`
}

// Validate reports specification errors.
func (s Spec) Validate() error {
	if s.N < 2 || s.N > 64 {
		return fmt.Errorf("matmul: N=%d out of supported range 2..64", s.N)
	}
	return nil
}

// Variant aliases the Jacobi variants so callers use one vocabulary.
type Variant = jacobi.Variant

// The three programming-model variants.
const (
	HybridFull = jacobi.HybridFull
	HybridSync = jacobi.HybridSync
	PureSM     = jacobi.PureSM
)

// Partition splits N rows over p ranks (earlier ranks get the remainder),
// mirroring the Jacobi partition but without boundary rows.
func Partition(n, p int) []RowBlock {
	base := n / p
	extra := n % p
	out := make([]RowBlock, p)
	row := 0
	for r := 0; r < p; r++ {
		rows := base
		if r < extra {
			rows++
		}
		out[r] = RowBlock{Rank: r, Row0: row, Rows: rows}
		row += rows
	}
	return out
}

// RowBlock is one rank's share of A's (and C's) rows.
type RowBlock struct {
	Rank, Row0, Rows int
}

// Active reports whether the rank owns any rows.
func (b RowBlock) Active() bool { return b.Rows > 0 }

// InitA returns the deterministic test matrix A.
func InitA(n int) [][]float64 {
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
		for j := range a[i] {
			a[i][j] = float64(i+1) * 0.25 * float64(j%7+1)
		}
	}
	return a
}

// InitB returns the deterministic test matrix B.
func InitB(n int) [][]float64 {
	b := make([][]float64, n)
	for i := range b {
		b[i] = make([]float64, n)
		for j := range b[i] {
			b[i][j] = float64(float64(j+1)*0.5) - float64(i%5) // unfused on every GOARCH
		}
	}
	return b
}

// Reference computes C = A x B sequentially, accumulating in the same
// order the parallel kernels do, so results compare bit-exact.
func Reference(n int) [][]float64 {
	a, bm := InitA(n), InitB(n)
	c := make([][]float64, n)
	for i := range c {
		c[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			sum := 0.0
			for k := 0; k < n; k++ {
				sum += float64(a[i][k] * bm[k][j]) // unfused, as in compute
			}
			c[i][j] = sum
		}
	}
	return c
}
