package resultcache

import "fmt"

// Backend names accepted by Open and the CLIs' -cache flags.
const (
	BackendOff    = "off"
	BackendMemory = "mem"
	BackendDisk   = "disk"
)

// Open builds a Cache from the CLI/daemon flag vocabulary: "off" returns
// a nil cache (every path treats nil as cache-off), "mem" an in-memory
// LRU bounded by budget bytes (<= 0 means DefaultMemoryBudget), "disk"
// an on-disk store rooted at dir. This is the single place the binaries
// with cache flags (medea-scenarios and medea-serve) resolve them, so
// the vocabulary cannot drift between them; any other name is an error
// that lists the three.
func Open(backend, dir string, budget int64) (*Cache, error) {
	switch backend {
	case "", BackendOff:
		return nil, nil
	case BackendMemory:
		return New(NewMemoryStore(budget)), nil
	case BackendDisk:
		if dir == "" {
			return nil, fmt.Errorf("resultcache: the disk backend needs a directory (-cache-dir)")
		}
		store, err := NewDiskStore(dir)
		if err != nil {
			return nil, err
		}
		return New(store), nil
	}
	return nil, fmt.Errorf("resultcache: unknown cache backend %q (have: %s, %s, %s)",
		backend, BackendOff, BackendMemory, BackendDisk)
}
