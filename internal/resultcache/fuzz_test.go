package resultcache

import (
	"bytes"
	"crypto/sha256"
	"os"
	"testing"
)

// FuzzCacheKey drives the key-derivation properties with arbitrary field
// contents: insertion order never matters, any single-field value change
// changes the key, and the domain and CodeVersion are always load-bearing.
func FuzzCacheKey(f *testing.F) {
	f.Add("dse/jacobi", "n", "30", "policy", "write-back", int64(8), 0.02)
	f.Add("scenario/noc", "router", "wormhole", "pattern", "transpose", int64(4096), 0.35)
	f.Add("", "", "", "", "", int64(0), 0.0)
	f.Add("d", "a", "b\x00c", "x", "\xff\xfe", int64(-1), -0.0)
	f.Fuzz(func(t *testing.T, domain, n1, v1, n2, v2 string, iv int64, fv float64) {
		if n1 == n2 || n1 == "i" || n2 == "i" || n1 == "f" || n2 == "f" {
			t.Skip("duplicate field names panic by design")
		}
		base := NewKey(domain).Str(n1, v1).Str(n2, v2).Int("i", iv).Float("f", fv).Sum()

		// Order independence: every other insertion order agrees.
		reordered := NewKey(domain).Float("f", fv).Str(n2, v2).Int("i", iv).Str(n1, v1).Sum()
		if base != reordered {
			t.Fatalf("insertion order changed key: %s vs %s", base, reordered)
		}

		// Single-field mutations change the key.
		if NewKey(domain).Str(n1, v1+"x").Str(n2, v2).Int("i", iv).Float("f", fv).Sum() == base {
			t.Fatalf("mutating field %q value did not change key", n1)
		}
		if NewKey(domain).Str(n1, v1).Str(n2, v2).Int("i", iv+1).Float("f", fv).Sum() == base {
			t.Fatal("mutating int field did not change key")
		}
		if fv == fv { // skip NaN: NaN != NaN makes "different value" ill-defined
			if NewKey(domain).Str(n1, v1).Str(n2, v2).Int("i", iv).Float("f", fv+1).Sum() == base && fv+1 != fv {
				t.Fatal("mutating float field did not change key")
			}
		}
		if NewKey(domain+"x").Str(n1, v1).Str(n2, v2).Int("i", iv).Float("f", fv).Sum() == base {
			t.Fatal("mutating domain did not change key")
		}

		// Dropping a field changes the key.
		if NewKey(domain).Str(n1, v1).Int("i", iv).Float("f", fv).Sum() == base {
			t.Fatalf("dropping field %q did not change key", n2)
		}

		// CodeVersion is part of every key.
		bumped := NewKey(domain).Str(n1, v1).Str(n2, v2).Int("i", iv).Float("f", fv).sum(CodeVersion + "!")
		if bumped == base {
			t.Fatal("CodeVersion bump did not change key")
		}

		// Rebuilding from scratch (a "reparse") reproduces the key exactly.
		if NewKey(domain).Str(n1, v1).Str(n2, v2).Int("i", iv).Float("f", fv).Sum() != base {
			t.Fatal("key derivation is not deterministic")
		}
	})
}

// FuzzDiskEntry throws arbitrary bytes at the on-disk entry decoder and at
// a store directory: decode must never panic, and must only ever accept
// bytes whose embedded checksum matches — so a Get over a fuzzed file is a
// miss or the exact payload, never garbage.
func FuzzDiskEntry(f *testing.F) {
	d, err := NewDiskStore(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	key := testKey(1)
	d.Put(key, []byte("seed payload"))
	if valid, err := os.ReadFile(d.path(key)); err == nil {
		f.Add(valid)
		f.Add(valid[:len(valid)-1])
		f.Add(valid[:diskHeaderSize])
	}
	f.Add([]byte{})
	f.Add([]byte("MEDEARC1"))
	f.Add(bytes.Repeat([]byte{0}, diskHeaderSize+4))

	f.Fuzz(func(t *testing.T, data []byte) {
		payload, ok := decodeEntry(data)
		if ok {
			// Accepting means the checksum matched; re-encoding must agree.
			reencoded := encodeForTest(payload)
			if !bytes.Equal(reencoded, data) {
				t.Fatalf("accepted entry does not round-trip")
			}
		}

		// A store Get over these exact bytes behaves identically and never
		// panics, whatever is in the file.
		dir := t.TempDir()
		store, err := NewDiskStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		k := testKey(2)
		if err := os.WriteFile(store.path(k), data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, hit := store.Get(k)
		if hit != ok {
			t.Fatalf("decodeEntry ok=%v but store hit=%v", ok, hit)
		}
		if hit && !bytes.Equal(got, payload) {
			t.Fatal("store returned different payload than decodeEntry")
		}
		if !hit {
			// Invalid entries are cleaned up so the next Put heals.
			if _, err := os.Stat(store.path(k)); err == nil {
				t.Fatal("invalid entry file was not removed on miss")
			}
		}
	})
}

// encodeForTest mirrors DiskStore.Put's framing for round-trip checks.
func encodeForTest(payload []byte) []byte {
	sum := sha256.Sum256(payload)
	buf := make([]byte, 0, diskHeaderSize+len(payload))
	buf = append(buf, diskMagic...)
	buf = append(buf, sum[:]...)
	return append(buf, payload...)
}
