package scenario

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/resultcache"
)

// recordingStore is a Store that keeps a copy of every entry put into
// it, so a test can hash exactly the bytes a run left in the cache.
type recordingStore struct {
	resultcache.Store
	mu      sync.Mutex
	entries map[resultcache.Key][]byte
}

func (r *recordingStore) Put(key resultcache.Key, val []byte) {
	r.mu.Lock()
	r.entries[key] = bytes.Clone(val)
	r.mu.Unlock()
	r.Store.Put(key, val)
}

// root is the Merkle root over the stored entries sorted by key, one leaf
// per entry: the key bytes followed by the value bytes.
func (r *recordingStore) root() string {
	keys := make([]resultcache.Key, 0, len(r.entries))
	for k := range r.entries {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i][:], keys[j][:]) < 0 })
	leaves := make([][]byte, len(keys))
	for i, k := range keys {
		leaves[i] = append(k[:], r.entries[k]...) // k is a per-iteration copy
	}
	return resultcache.NewTree(leaves).Root().String()
}

// codeVersionTables pins every resultcache.CodeVersion to the hash of the
// golden table recorded under it: the roots below and the jacobi golden
// cycle count. A disk cache or a trace file written by one build is read
// by the next as long as the version is equal, so a table that changes
// under an unchanged version would serve stale rows as hits. A change
// that is meant to alter simulated behaviour bumps the version and adds
// its table here; no line is ever edited.
var codeVersionTables = map[string]string{
	"medea-2026.08": "8346ff3e488091663ddd8be9133dd21cef2b2b10d75b1afc7ae6daae37328e99",
	"medea-2026.10": "a4758bff8937c32067f028466125114f5add6dcd60d107fd280e8e5cb6eda8be",
	// Point defaults resolved before keying (noc's Validate).
	"medea-2026.10b": "5e20f709233b434fd0e5c46262090b051e3583f02b8a76c9da7f4e14873623b4",
}

// TestExampleRootsGolden pins every shipped scenario to two Merkle roots:
// the root of its result rows (axis order, every measured figure, the
// area and the kernel Speedup attach all reach it) and the root of the
// entries the run stored in a fresh result cache (key and value bytes:
// the stored format that disk caches written by earlier builds must keep
// hitting). Between them the examples reach all six key domains. Any
// drift in the one execution path shows here as a changed hash on a
// named file.
//
// The roots hold on every GOARCH. Nothing here runs a foreign binary (no
// emulator), so the proof for the other architectures is CI's assembly
// step, which fails on any fused multiply-add in the repository's code.
func TestExampleRootsGolden(t *testing.T) {
	want := map[string][2]string{ // name: {row root, stored-entry root}
		"bursty-hotspot":     {"383537068fc8961ffceae70f19f365c376b5b06a718d455e237f32558691ea3c", "e3a74152be7c0fbe7b6f788d6e39adc13f05b1373c1cf4f9c7b0080de8a03e91"},
		"fig8-quick":         {"ace2ee435576e8e00a4cea2c89b4a9da72a7d59fa5fa08eeb2f4fc023c8f0bce", "e9a320275d8d3cd17aeb91b64326ca754d2396f7935aa64500bf9d941a5fd0ae"},
		"kernel-ablation":    {"fb0ec465151461d69a303d889ee6549049ef5006dbaebfff16ffdcb6cddc0a50", "7221d45f85fd5956267a858ab03f484ac3972541a178e6a0df574f5f54c696c6"},
		"noc-load-sweep":     {"ddf9e314a8a6307f5e0aea4075bcbc3afcce7471ef3970b50f58d6d0156e7ed6", "cecf7325d7e58fa69a14db756efd369dad7bc4d7a332c904309c70aedd7908e0"},
		"patterns-sweep":     {"aa6eed44027c998e980a7e605bd1c8823b3a8002b88f31f2c09b089645e78680", "63cfc4da92727a81713c9f20fb2005b1cbf775d59d28785407b01522e34a702e"},
		"router-ablation":    {"7587b91cd06ddc36d24461613842f347ac44354fae12dd41f1bba33f0985be88", "bc8ccb8ea3ad707605be5ca4aa29ab1a1080779f37037d4baa61ba14924836e7"},
		"service-hotspot":    {"74452418a197792489b0d76a97ed09df0a8b26e052d41c2215ef309080415e6a", "b66d7b162456cf48853a6024be6483172a2cd885ed59254937e842ab1bc70614"},
		"smoke":              {"cadde0f26bd531d3ec2f724ce19a8abf820d25349b50deb837d53bb6ddd4d06b", "76b89094f14aa8eb6bc4116f04162428caf2e0e10f49cab01337804080c9691a"},
		"topology-ablation":  {"8a2b4a21c61ae9310fe5d36cd04c6ef70a81cd490d6a0c70f36d1801ee78c8c8", "5fe205c4c3b845c6ef2c3403fd534b7bc7d9ba03f0f78b44ed2669d5705eebd9"},
		"trace-record-quick": {"74aa02f047ae15dbc3836c9b17aec8fdca0eb4da5146804ac426bb1c4d1cf114", "d29b4e166d6ed8c951e559ac19f65629c2142c20a34808b47f3a651ca0b4f154"},
		"trace-replay":       {"284995ba397fc1fd784e8419bb7ff4511d2313ddc4b1af89a26179f09c17ef5e", "4cac1e60d3c1d32ac14f4e9cec56d9122f3a37b0b3c8e0ea224e813bb0992b52"},
		"window-sweep":       {"b489b1ecbee53bc83da467c2c1809ec5aedcce81d6b02597f8e05ffa1f4cf4da", "93ca4f2b7a3eec1ae9eb553895d33310fe98423ba4b76de718e7b39b43b0a0ab"},
	}
	files, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(want) {
		t.Errorf("%d example scenarios, %d recorded roots", len(files), len(want))
	}
	for _, path := range files {
		s, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		store := &recordingStore{Store: resultcache.NewMemoryStore(0), entries: map[resultcache.Key][]byte{}}
		s.Cache = resultcache.New(store)
		results, err := RunCtx(context.Background(), s)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		if n := s.NumPoints(); len(results) != n {
			t.Errorf("%s: the run produced %d rows, NumPoints says %d", name, len(results), n)
		}
		if root := MerkleRoot(results); root != want[name][0] {
			t.Errorf("%s: merkle root %s, recorded %s", name, root, want[name][0])
		}
		if root := store.root(); root != want[name][1] {
			t.Errorf("%s: stored-entry root %s, recorded %s", name, root, want[name][1])
		}
	}

	// One hash of the whole table, tied to the code version.
	jacobiGolden, err := os.ReadFile("../jacobi/testdata/determinism_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		fmt.Fprintf(h, "%s %s %s\n", name, want[name][0], want[name][1])
	}
	fmt.Fprintf(h, "jacobi %s\n", bytes.TrimSpace(jacobiGolden))
	table := hex.EncodeToString(h.Sum(nil))
	if pinned, ok := codeVersionTables[resultcache.CodeVersion]; !ok || pinned != table {
		t.Errorf("the golden table hashes to %s, but CodeVersion %q pins %q: a re-recorded root or golden needs a resultcache.CodeVersion bump and a new line in codeVersionTables",
			table, resultcache.CodeVersion, pinned)
	}
}
