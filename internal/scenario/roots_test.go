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
}

// TestExampleRootsGolden pins every shipped scenario to two Merkle roots:
// the root of its result rows (recorded before the sweep loops were folded
// into par.Sweep: axis order, every measured figure and the kernel Speedup
// attach all reach it) and the root of the entries the run stored in a
// fresh result cache (key and value bytes: the stored format that disk
// caches written by earlier builds must keep hitting). Between them the
// examples reach all six key domains. Any drift in the one execution path
// shows here as a changed hash on a named file.
//
// The roots hold on every GOARCH. Nothing here runs a foreign binary (no
// emulator), so the proof for the other architectures is CI's assembly
// step, which fails on any fused multiply-add in the repository's code.
func TestExampleRootsGolden(t *testing.T) {
	want := map[string][2]string{ // name: {row root, stored-entry root}
		"bursty-hotspot":     {"383537068fc8961ffceae70f19f365c376b5b06a718d455e237f32558691ea3c", "4ac4251708b48b60cb443b145d30625a838229b611b6a8b52414c465124065c0"},
		"fig8-quick":         {"10dfe7df4f704f962d5cc9fa43426ca1f30f3ce238601f7fc170aae34ec0f573", "9c45a5135f8a335bf8f25a5fa00b7d8031cbea19fa6b771c798eabd21c29db9d"},
		"kernel-ablation":    {"35edbff9123bc8eb9f9515ee001509d72411a62897c6fa67845ec3c1f5cf2e55", "080224d578ca580ed466afcc367a208389aae1bbd3487795d4d3bf6d5fe10daa"},
		"noc-load-sweep":     {"ddf9e314a8a6307f5e0aea4075bcbc3afcce7471ef3970b50f58d6d0156e7ed6", "1d02bb807387e5e4a973aabc23b0e5d54a426379593a49304931bc0c4b543d69"},
		"patterns-sweep":     {"aa6eed44027c998e980a7e605bd1c8823b3a8002b88f31f2c09b089645e78680", "821dc06835c5290350ec8d4155c7b096cb2fd89cfd86a5725f6a1ae856d292c3"},
		"router-ablation":    {"7587b91cd06ddc36d24461613842f347ac44354fae12dd41f1bba33f0985be88", "4f828c622818aef17b640fc0ce4771ab885a8226672dfebb486a11ae83a4041f"},
		"service-hotspot":    {"74452418a197792489b0d76a97ed09df0a8b26e052d41c2215ef309080415e6a", "4caf063d3c02466b5c86b6bffcc6197d2ca4a4ee45ac61654f22ff7daf5805dc"},
		"smoke":              {"cadde0f26bd531d3ec2f724ce19a8abf820d25349b50deb837d53bb6ddd4d06b", "2e57ebbda7bfdb851a22b06aa410007033d962b1da542a3fdb728db98ddb05b3"},
		"topology-ablation":  {"8a2b4a21c61ae9310fe5d36cd04c6ef70a81cd490d6a0c70f36d1801ee78c8c8", "7628a0982656b716b40e957b67123735092cbdc840c7f32478d1f143c8505297"},
		"trace-record-quick": {"74aa02f047ae15dbc3836c9b17aec8fdca0eb4da5146804ac426bb1c4d1cf114", "95f6f92f7ca0ee251b4820c5dc1f12c53b32bcba7aaeb2ea0df207308d4c89d9"},
		"trace-replay":       {"284995ba397fc1fd784e8419bb7ff4511d2313ddc4b1af89a26179f09c17ef5e", "13f1d99cdeaf9e2c075202d0fa0e41da0c170f79543be5958033b15a66637260"},
		"window-sweep":       {"b489b1ecbee53bc83da467c2c1809ec5aedcce81d6b02597f8e05ffa1f4cf4da", "4856debce4eb309d0d7f7ab8a2e65174b73bdba601a779336f5726aed9d3ac79"},
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
