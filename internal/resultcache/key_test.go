package resultcache

import (
	"fmt"
	"math"
	"strings"
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

// keyedLevel is a level of a tagged config: a Stringer, an int and a
// float.
type keyedLevel int

func (l keyedLevel) String() string { return fmt.Sprintf("level-%d", int(l)) }

type keyedInner struct {
	Rate float64 `key:"rate"`
	On   bool    `key:"on"`
}

// keyedConfig exercises every rule of Struct: tagged leaves of each kind,
// a nested struct and a nested pointer (both flattened), an inert field,
// and an unexported one.
type keyedConfig struct {
	Level   keyedLevel `key:"level"`
	N       int        `key:"n"`
	Name    string     `key:"name"`
	Inner   keyedInner
	Burst   *keyedBurst
	Observe func() `key:"-"`
	private int
}

type keyedBurst struct {
	MeanOn int64 `key:"burst_mean_on"`
}

// TestStructMatchesHandBuiltKey: Struct of a tagged value derives the
// key of the equivalent NewKey chain, so a hand-written recipe can be
// replaced by the config's tags without moving a stored key.
func TestStructMatchesHandBuiltKey(t *testing.T) {
	cfg := keyedConfig{Level: 3, N: -7, Name: "torus", Inner: keyedInner{Rate: 0.1, On: true}, Burst: &keyedBurst{MeanOn: 20}}
	got := NewKey("d").Struct(cfg).Sum()
	want := NewKey("d").Str("level", "level-3").Int("n", -7).Str("name", "torus").
		Float("rate", 0.1).Bool("on", true).Int("burst_mean_on", 20).Sum()
	if got != want {
		t.Fatalf("Struct key %s, hand-built %s", got, want)
	}
	if NewKey("d").Struct(&cfg).Sum() != want {
		t.Fatal("Struct of a pointer keys differently from the value")
	}
	// Flattened fields are the builder's fields: nothing names the
	// struct they came from.
	if NewKey("d").Struct(keyedInner{Rate: 0.1, On: true}).Sum() != NewKey("d").Float("rate", 0.1).Bool("on", true).Sum() {
		t.Fatal("a flattened struct's fields are not plain key fields")
	}
}

// TestStructSkips: an inert (`-`) field, an unexported field and a nil
// pointer add nothing.
func TestStructSkips(t *testing.T) {
	base := keyedConfig{Level: 1, N: 2}
	want := NewKey("d").Str("level", "level-1").Int("n", 2).Str("name", "").
		Float("rate", 0).Bool("on", false).Sum()
	withInert := base
	withInert.Observe = func() {}
	withInert.private = 99
	for name, cfg := range map[string]keyedConfig{"zero inert fields": base, "set inert fields": withInert} {
		if got := NewKey("d").Struct(cfg).Sum(); got != want {
			t.Errorf("%s: key %s, want %s", name, got, want)
		}
	}
	if NewKey("d").Struct((*keyedConfig)(nil)).Sum() != NewKey("d").Sum() {
		t.Error("a nil pointer added fields")
	}
}

// keyedBadInner has an untagged leaf below a flattened field.
type keyedBadInner struct{ Cap int }

// TestStructPanics: a field Struct cannot key panics with the field's
// name, so a new config field fails the first point that keys it.
func TestStructPanics(t *testing.T) {
	type untagged struct {
		Rate float64 `key:"rate"`
		Cap  int
	}
	type unkeyable struct {
		Sizes []int `key:"sizes"`
	}
	type taggedNested struct {
		Inner keyedInner `key:"inner"`
	}
	type iface struct {
		Obs fmt.Stringer `key:"obs"`
	}
	cases := []struct {
		name, wantSub string
		v             any
	}{
		{"untagged field", "untagged.Cap has no key tag", untagged{}},
		{"untagged field of a nested struct", "keyedBadInner.Cap has no key tag", struct{ In keyedBadInner }{}},
		{"slice", "unkeyable.Sizes: cannot key a []int", unkeyable{}},
		{"interface", "iface.Obs: cannot key a fmt.Stringer", iface{}},
		{"tagged nested struct", "taggedNested.Inner is keyed by its own fields", taggedNested{}},
		{"not a struct", "Struct of int", 3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, c.wantSub) {
					t.Fatalf("panic %q, want it to contain %q", msg, c.wantSub)
				}
			}()
			NewKey("d").Struct(c.v)
		})
	}
}

// TestStructDuplicateTagPanics: a tag that repeats a field already in
// the builder fails through Sum's duplicate check.
func TestStructDuplicateTagPanics(t *testing.T) {
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, `duplicate key field "rate"`) {
			t.Fatalf("panic %q, want a duplicate-field panic", msg)
		}
	}()
	NewKey("d").Float("rate", 0.5).Struct(keyedInner{Rate: 0.1}).Sum()
}
