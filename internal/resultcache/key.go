package resultcache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"
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

// Struct adds every exported field of the struct v (or of *v; a nil
// pointer adds nothing) under the name in its `key:"..."` tag, so the
// config a simulator receives is its own key recipe and no second list of
// its fields can drift from it:
//
//   - a field tagged `key:"-"` cannot change a result (an observer, say)
//     and adds nothing;
//   - an untagged struct or pointer-to-struct field adds its own fields
//     (a nil pointer adds nothing);
//   - a fmt.Stringer keys by String(); ints, floats, bools and strings key
//     through Int, Float, Bool and Str;
//   - any other exported field, untagged or of a kind with no canonical
//     form, panics with the field's name: a new config field must be
//     keyed or declared inert before any point can run.
//
// Unexported fields add nothing. Field names share one namespace with
// the builder's other fields, so a tag that repeats one panics in Sum.
func (b *KeyBuilder) Struct(v any) *KeyBuilder {
	b.addStruct(reflect.ValueOf(v))
	return b
}

var stringerType = reflect.TypeFor[fmt.Stringer]()

func (b *KeyBuilder) addStruct(v reflect.Value) {
	if v.Kind() == reflect.Pointer {
		if v.IsNil() {
			return
		}
		v = v.Elem()
	}
	t := v.Type()
	if t.Kind() != reflect.Struct {
		panic(fmt.Sprintf("resultcache: Struct of %s, not a struct", t))
	}
	for i := range t.NumField() {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		name, tagged := f.Tag.Lookup("key")
		if name == "-" {
			continue
		}
		fv, ft := v.Field(i), f.Type
		stringer := ft.Kind() != reflect.Pointer && ft.Kind() != reflect.Interface && ft.Implements(stringerType)
		if !stringer && (ft.Kind() == reflect.Struct || ft.Kind() == reflect.Pointer && ft.Elem().Kind() == reflect.Struct) {
			if tagged {
				panic(fmt.Sprintf("resultcache: %s.%s is keyed by its own fields; drop its key tag %q", t, f.Name, name))
			}
			b.addStruct(fv)
			continue
		}
		if !tagged {
			panic(fmt.Sprintf("resultcache: %s.%s has no key tag (name it, or tag it `key:\"-\"` if it cannot change a result)", t, f.Name))
		}
		switch k := ft.Kind(); {
		case stringer:
			b.Str(name, fv.Interface().(fmt.Stringer).String())
		case fv.CanInt():
			b.Int(name, fv.Int())
		case fv.CanFloat():
			b.Float(name, fv.Float())
		case k == reflect.Bool:
			b.Bool(name, fv.Bool())
		case k == reflect.String:
			b.Str(name, fv.String())
		default:
			panic(fmt.Sprintf("resultcache: %s.%s: cannot key a %s", t, f.Name, ft))
		}
	}
}

// Sum derives the key. The builder can be reused afterwards (appending
// more fields derives a new, different key).
func (b *KeyBuilder) Sum() Key { return b.sum(CodeVersion) }

// sum derives the key under the given code version.
func (b *KeyBuilder) sum(version string) Key {
	sorted := append([]field(nil), b.fields...)
	slices.SortFunc(sorted, func(a, b field) int { return strings.Compare(a.name, b.name) })
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
