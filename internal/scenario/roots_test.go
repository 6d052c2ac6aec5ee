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
		"bursty-hotspot":     {"383537068fc8961ffceae70f19f365c376b5b06a718d455e237f32558691ea3c", "c054ad3a7ce085b35ac979de2eedf2bd1758a53e4187f18a82a0919b553e85fe"},
		"fig8-quick":         {"ace2ee435576e8e00a4cea2c89b4a9da72a7d59fa5fa08eeb2f4fc023c8f0bce", "b83610aad06dce397150c37bb1a98d502f13f9973ed4c040d4d136f5b389915c"},
		"kernel-ablation":    {"fb0ec465151461d69a303d889ee6549049ef5006dbaebfff16ffdcb6cddc0a50", "908b97de5830cc460c39076b4bed72ee6d5a22cad0fd1a6babefdff223a4ae2b"},
		"noc-load-sweep":     {"ddf9e314a8a6307f5e0aea4075bcbc3afcce7471ef3970b50f58d6d0156e7ed6", "0e25837c4c32346f418569308b0992b341471dfe05d352dafeebfa7b8bfcc30d"},
		"patterns-sweep":     {"aa6eed44027c998e980a7e605bd1c8823b3a8002b88f31f2c09b089645e78680", "d8f36b145396083fddf84f27c752f1236f553d1a3d8fdfa0bd237ca2ed9e3788"},
		"router-ablation":    {"7587b91cd06ddc36d24461613842f347ac44354fae12dd41f1bba33f0985be88", "05ec052a86746bdd0de64686a2a3fb398dbd0e767326e2991d67c9564a891be8"},
		"service-hotspot":    {"74452418a197792489b0d76a97ed09df0a8b26e052d41c2215ef309080415e6a", "8a4641355dcc5519cdef86aa8af1c944da421cce4613706be68a4dec25688237"},
		"smoke":              {"cadde0f26bd531d3ec2f724ce19a8abf820d25349b50deb837d53bb6ddd4d06b", "af9d704fa2367c1aa6b54556be093914a090c963890255cc2b16405d4f5018cc"},
		"topology-ablation":  {"8a2b4a21c61ae9310fe5d36cd04c6ef70a81cd490d6a0c70f36d1801ee78c8c8", "54275ad1adaa036a2d1e7bd56287fe02295765d4224a38578103d815cc208491"},
		"trace-record-quick": {"74aa02f047ae15dbc3836c9b17aec8fdca0eb4da5146804ac426bb1c4d1cf114", "6ab19947b6ef79a492ebd6024fb46804211bdc57aadbdd0d8967c1ef37904eac"},
		"trace-replay":       {"284995ba397fc1fd784e8419bb7ff4511d2313ddc4b1af89a26179f09c17ef5e", "578f8bb6ba561e270628425413aebc7a0032e1bbc16e5e4713569f51583e64b2"},
		"window-sweep":       {"b489b1ecbee53bc83da467c2c1809ec5aedcce81d6b02597f8e05ffa1f4cf4da", "9339bdc307b38da7febda2d6d1098f37102c5b19b2cd1de60b021903a5cfb633"},
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
