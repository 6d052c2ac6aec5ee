// Package enum is the registry idiom every named axis of the simulator
// shares: a closed set of int kinds (routers, topologies, traffic
// patterns, programming-model variants, workloads), each with one
// canonical name, resolved from a scenario file or a flag by that name or
// by its index. A kind's package declares its constants with iota and one
// Table keyed by them; its String, All, Names and Parse are one-line
// delegates to the table, so every axis parses, lists and reports errors
// alike.
package enum

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Table maps the kinds 0..n-1 of K to their canonical names.
type Table[K ~int] struct {
	pkg, noun string
	names     []string
}

// New builds the table of names, keyed by kind (names[k] is k's name).
// pkg and noun word the errors: "<pkg>: unknown <noun> ...". An empty
// name is a kind left out of the list, and panics.
func New[K ~int](pkg, noun string, names []string) Table[K] {
	for i, name := range names {
		if name == "" {
			panic(fmt.Sprintf("%s: %s %d has no name", pkg, noun, i))
		}
	}
	return Table[K]{pkg: pkg, noun: noun, names: names}
}

// Valid reports whether k is a defined kind.
func (t Table[K]) Valid(k K) bool { return k >= 0 && int(k) < len(t.names) }

// String returns k's canonical name, or "<noun>(k)" for an undefined kind.
func (t Table[K]) String(k K) string {
	if !t.Valid(k) {
		return fmt.Sprintf("%s(%d)", t.noun, int(k))
	}
	return t.names[k]
}

// All returns every kind in declaration order.
func (t Table[K]) All() []K {
	out := make([]K, len(t.names))
	for i := range out {
		out[i] = K(i)
	}
	return out
}

// Names returns the canonical names of every kind in declaration order,
// for flag documentation and error messages.
func (t Table[K]) Names() []string { return slices.Clone(t.names) }

// Parse resolves a kind from its canonical name or its index. Matching
// ignores surrounding space and case and accepts "_" for "-", so
// "Bit_Complement" is "bit-complement".
func (t Table[K]) Parse(s string) (K, error) {
	norm := strings.ReplaceAll(strings.ToLower(strings.TrimSpace(s)), "_", "-")
	if i := slices.Index(t.names, norm); i >= 0 {
		return K(i), nil
	}
	if n, err := strconv.Atoi(norm); err == nil {
		if n >= 0 && n < len(t.names) {
			return K(n), nil
		}
		return 0, fmt.Errorf("%s: %s index %d out of range [0, %d)", t.pkg, t.noun, n, len(t.names))
	}
	return 0, fmt.Errorf("%s: unknown %s %q (have: %s)", t.pkg, t.noun, s, strings.Join(t.names, ", "))
}
