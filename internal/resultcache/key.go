package resultcache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
)

// Key is a content address: the SHA-256 of a canonically serialized
// point configuration plus the CodeVersion stamp.
type Key [sha256.Size]byte

// String returns the key as lowercase hex (also the disk store's entry
// file name).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// field is one named configuration value, already rendered to its
// canonical string form.
type field struct {
	name, value string
}

// KeyBuilder derives a Key from a domain (which execution path the entry
// belongs to, e.g. "dse/jacobi") and a set of named fields. The
// serialization is canonical:
//
//   - fields are sorted by name before hashing, so the key is independent
//     of insertion order (and therefore of map iteration order in any
//     caller assembling the fields);
//   - every component is length-prefixed, so no concatenation of names
//     and values can collide with another ("ab"+"c" never equals
//     "a"+"bc");
//   - floats render with strconv's shortest-round-trip formatting, which
//     is exact: two different float64 bit patterns (NaNs aside) never
//     produce the same string;
//   - the CodeVersion stamp is hashed first, so bumping it invalidates
//     every key at once.
//
// Duplicate field names are a programming error and make Sum panic: with
// duplicates, sorting could not make the encoding insertion-order
// independent.
type KeyBuilder struct {
	domain string
	fields []field
}

// NewKey starts a key derivation for the given domain.
func NewKey(domain string) *KeyBuilder {
	return &KeyBuilder{domain: domain}
}

// Str adds a string-valued field.
func (b *KeyBuilder) Str(name, v string) *KeyBuilder {
	b.fields = append(b.fields, field{name, v})
	return b
}

// Int adds an integer-valued field.
func (b *KeyBuilder) Int(name string, v int64) *KeyBuilder {
	return b.Str(name, strconv.FormatInt(v, 10))
}

// Float adds a float-valued field, rendered exactly (shortest string that
// round-trips to the same float64).
func (b *KeyBuilder) Float(name string, v float64) *KeyBuilder {
	return b.Str(name, strconv.FormatFloat(v, 'g', -1, 64))
}

// Bool adds a boolean field.
func (b *KeyBuilder) Bool(name string, v bool) *KeyBuilder {
	return b.Str(name, strconv.FormatBool(v))
}

// Sum derives the key. The builder can be reused afterwards (appending
// more fields derives a new, different key).
func (b *KeyBuilder) Sum() Key { return b.sum(CodeVersion) }

// sum derives the key under the given code version.
func (b *KeyBuilder) sum(version string) Key {
	sorted := append([]field(nil), b.fields...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].name < sorted[j].name })
	for i := 1; i < len(sorted); i++ {
		if sorted[i].name == sorted[i-1].name {
			panic(fmt.Sprintf("resultcache: duplicate key field %q in domain %q", sorted[i].name, b.domain))
		}
	}
	h := sha256.New()
	writeFrame := func(s string) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	writeFrame(version)
	writeFrame(b.domain)
	for _, f := range sorted {
		writeFrame(f.name)
		writeFrame(f.value)
	}
	var k Key
	h.Sum(k[:0])
	return k
}
