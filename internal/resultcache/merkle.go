package resultcache

import "crypto/sha256"

// Merkle run ledger: a run's result set hashes into a binary Merkle tree
// whose root is a single content address for the whole run. Two runs
// with equal roots are byte-identical point-for-point, which makes "did
// this sweep change?" an O(1) root comparison instead of an O(n) byte
// diff.

// Domain-separation prefixes: a leaf hash can never be reinterpreted as
// an interior node hash (or vice versa), so a forged single-leaf tree
// cannot collide with an interior node of a larger one.
const (
	leafPrefix = 0x00
	nodePrefix = 0x01
)

// Tree is an immutable Merkle tree over a sequence of leaf byte strings;
// it keeps only its root.
type Tree struct {
	root Key
}

// NewTree hashes the leaves into a tree. Each level pairs the one below;
// an unpaired last node is promoted unchanged. An empty leaf set yields
// the well-defined empty-tree root (the hash of the empty string).
func NewTree(leaves [][]byte) *Tree {
	if len(leaves) == 0 {
		return &Tree{root: sha256.Sum256(nil)}
	}
	level := make([]Key, len(leaves))
	for i, l := range leaves {
		h := sha256.New()
		h.Write([]byte{leafPrefix})
		h.Write(l)
		h.Sum(level[i][:0])
	}
	for len(level) > 1 {
		next := make([]Key, 0, (len(level)+1)/2)
		for i := 0; i < len(level); i += 2 {
			if i+1 == len(level) {
				next = append(next, level[i])
				continue
			}
			h := sha256.New()
			h.Write([]byte{nodePrefix})
			h.Write(level[i][:])
			h.Write(level[i+1][:])
			var k Key
			h.Sum(k[:0])
			next = append(next, k)
		}
		level = next
	}
	return &Tree{root: level[0]}
}

// Root returns the tree's root hash. The empty tree's root is
// sha256("").
func (t *Tree) Root() Key { return t.root }
