package resultcache

import (
	"math"
	"testing"
)

// sampleKey builds a representative sweep-point key, with one field
// optionally overridden — the scaffolding for the mutation tests.
func sampleKey(override func(*KeyBuilder) *KeyBuilder) Key {
	b := NewKey("dse/jacobi").
		Int("n", 30).
		Int("cores", 8).
		Int("cache_kb", 16).
		Str("policy", "write-back").
		Str("variant", "hybrid-full").
		Int("warmup", 1).
		Int("measured", 1)
	if override != nil {
		b = override(b)
	}
	return b.Sum()
}

// TestKeyFieldMutationsChangeKey holds the core falsification property:
// every single-field mutation of a point configuration must produce a
// different key (a collision here would mean a wrong cache hit).
func TestKeyFieldMutationsChangeKey(t *testing.T) {
	base := sampleKey(nil)
	mutations := map[string]Key{
		"n":        NewKey("dse/jacobi").Int("n", 31).Int("cores", 8).Int("cache_kb", 16).Str("policy", "write-back").Str("variant", "hybrid-full").Int("warmup", 1).Int("measured", 1).Sum(),
		"cores":    NewKey("dse/jacobi").Int("n", 30).Int("cores", 9).Int("cache_kb", 16).Str("policy", "write-back").Str("variant", "hybrid-full").Int("warmup", 1).Int("measured", 1).Sum(),
		"cache_kb": NewKey("dse/jacobi").Int("n", 30).Int("cores", 8).Int("cache_kb", 32).Str("policy", "write-back").Str("variant", "hybrid-full").Int("warmup", 1).Int("measured", 1).Sum(),
		"policy":   NewKey("dse/jacobi").Int("n", 30).Int("cores", 8).Int("cache_kb", 16).Str("policy", "write-through").Str("variant", "hybrid-full").Int("warmup", 1).Int("measured", 1).Sum(),
		"variant":  NewKey("dse/jacobi").Int("n", 30).Int("cores", 8).Int("cache_kb", 16).Str("policy", "write-back").Str("variant", "pure-sm").Int("warmup", 1).Int("measured", 1).Sum(),
		"warmup":   NewKey("dse/jacobi").Int("n", 30).Int("cores", 8).Int("cache_kb", 16).Str("policy", "write-back").Str("variant", "hybrid-full").Int("warmup", 2).Int("measured", 1).Sum(),
		"measured": NewKey("dse/jacobi").Int("n", 30).Int("cores", 8).Int("cache_kb", 16).Str("policy", "write-back").Str("variant", "hybrid-full").Int("warmup", 1).Int("measured", 2).Sum(),
		"domain":   NewKey("dse/matmul").Int("n", 30).Int("cores", 8).Int("cache_kb", 16).Str("policy", "write-back").Str("variant", "hybrid-full").Int("warmup", 1).Int("measured", 1).Sum(),
	}
	seen := map[Key]string{base: "base"}
	for name, k := range mutations {
		if k == base {
			t.Errorf("mutating %s left the key unchanged", name)
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("mutations %s and %s collide", name, prev)
		}
		seen[k] = name
	}
}

// TestKeyOrderStable: the key must not depend on field insertion order —
// the property that makes keys stable across map iteration order and
// across reparses that assemble fields differently.
func TestKeyOrderStable(t *testing.T) {
	a := NewKey("d").Int("x", 1).Str("y", "v").Float("z", 0.25).Sum()
	b := NewKey("d").Float("z", 0.25).Int("x", 1).Str("y", "v").Sum()
	c := NewKey("d").Str("y", "v").Float("z", 0.25).Int("x", 1).Sum()
	if a != b || b != c {
		t.Fatalf("insertion order changed the key: %s / %s / %s", a, b, c)
	}
}

// TestKeyCodeVersionInvalidates: bumping the code-version stamp must
// change every key, so stale entries from older simulation semantics can
// never be served.
func TestKeyCodeVersionInvalidates(t *testing.T) {
	b := NewKey("dse/jacobi").Int("n", 30).Str("variant", "hybrid-full")
	if b.Sum() != b.sum(CodeVersion) {
		t.Fatal("Sum does not hash the build's CodeVersion")
	}
	if b.Sum() == b.sum(CodeVersion+"-next") {
		t.Fatal("CodeVersion bump did not change the key")
	}
}

// TestKeyFramingInjective: length-prefix framing means adjacent fields
// cannot be re-segmented into a colliding encoding.
func TestKeyFramingInjective(t *testing.T) {
	a := NewKey("d").Str("ab", "c").Sum()
	b := NewKey("d").Str("a", "bc").Sum()
	if a == b {
		t.Fatal(`fields ("ab","c") and ("a","bc") collide`)
	}
	c := NewKey("d").Str("a", "").Str("b", "").Sum()
	d := NewKey("d").Str("a", "").Sum()
	if c == d {
		t.Fatal("field count is not part of the encoding")
	}
}

// TestKeyFloatExact: distinct float64 values — including ones that print
// identically at low precision — must key differently, and -0/+0 (same
// formatted string "0"... actually distinct strings) stay distinguishable
// from each other exactly as strconv renders them.
func TestKeyFloatExact(t *testing.T) {
	a := NewKey("d").Float("r", 0.1).Sum()
	b := NewKey("d").Float("r", math.Nextafter(0.1, 1)).Sum()
	if a == b {
		t.Fatal("adjacent float64 values collide")
	}
	if NewKey("d").Float("r", 0.30000000000000004).Sum() == NewKey("d").Float("r", 0.3).Sum() {
		t.Fatal("0.3 and 0.30000000000000004 collide")
	}
}

// TestKeyDuplicateFieldPanics: duplicates would break order independence,
// so Sum refuses them loudly.
func TestKeyDuplicateFieldPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate field name did not panic")
		}
	}()
	NewKey("d").Int("x", 1).Int("x", 2).Sum()
}
