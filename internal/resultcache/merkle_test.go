package resultcache

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

func leavesN(n int, mutate map[int]string) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		s := fmt.Sprintf("leaf-%d", i)
		if m, ok := mutate[i]; ok {
			s = m
		}
		out[i] = []byte(s)
	}
	return out
}

func TestMerkleRootDeterministic(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 8, 28, 100} {
		a := NewTree(leavesN(n, nil))
		b := NewTree(leavesN(n, nil))
		if a.Root() != b.Root() {
			t.Fatalf("n=%d: same leaves, different roots", n)
		}
	}
}

func TestMerkleRootSensitive(t *testing.T) {
	base := NewTree(leavesN(28, nil)).Root()
	seen := map[Key]int{base: -1}
	for i := 0; i < 28; i++ {
		r := NewTree(leavesN(28, map[int]string{i: "mutated"})).Root()
		if prev, dup := seen[r]; dup {
			t.Fatalf("mutating leaf %d collides with %d", i, prev)
		}
		seen[r] = i
	}
	// Order matters: a permutation is a different run.
	swapped := leavesN(28, nil)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	if NewTree(swapped).Root() == base {
		t.Fatal("leaf swap did not change the root")
	}
	// Leaf-count extension matters.
	if NewTree(leavesN(29, nil)).Root() == base {
		t.Fatal("appending a leaf did not change the root")
	}
}

// TestMerkleDomainSeparation: a single leaf whose bytes are exactly a
// node's child-hash concatenation must not hash to that node.
func TestMerkleDomainSeparation(t *testing.T) {
	leaves := leavesN(2, nil)
	var forged []byte
	for _, l := range leaves {
		h := sha256.Sum256(append([]byte{leafPrefix}, l...))
		forged = append(forged, h[:]...)
	}
	if NewTree([][]byte{forged}).Root() == NewTree(leaves).Root() {
		t.Fatal("leaf/node domain separation failed")
	}
}

// TestMerkleEmptyRoot: the empty tree has a well-defined root distinct
// from any nonempty tree's.
func TestMerkleEmptyRoot(t *testing.T) {
	e1 := NewTree(nil).Root()
	e2 := NewTree([][]byte{}).Root()
	if e1 != e2 {
		t.Fatal("empty roots differ")
	}
	if e1 == NewTree(leavesN(1, nil)).Root() {
		t.Fatal("empty root collides with one-leaf root")
	}
	// An empty leaf is not the same as no leaves.
	if e1 == NewTree([][]byte{nil}).Root() {
		t.Fatal("empty root collides with single-empty-leaf root")
	}
}
