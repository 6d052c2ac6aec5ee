package resultcache

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func testKey(i int) Key {
	return NewKey("test").Int("i", int64(i)).Sum()
}

// TestSingleflightExactlyOnce is the race-mode concurrency test from the
// issue: N parallel workers requesting one uncomputed key must trigger
// exactly one compute; everyone gets the same bytes.
func TestSingleflightExactlyOnce(t *testing.T) {
	const workers = 32
	c := New(NewMemoryStore(0))
	key := testKey(1)

	var computes atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	vals := make([][]byte, workers)
	cached := make([]bool, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, hit, err := c.GetOrCompute(key, func() ([]byte, error) {
				computes.Add(1)
				<-release // hold the compute open so every worker piles up
				return []byte("payload"), nil
			})
			if err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
			vals[i], cached[i] = v, hit
		}(i)
	}
	close(release)
	wg.Wait()

	if got := computes.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want exactly 1", got)
	}
	fresh := 0
	for i := range vals {
		if !bytes.Equal(vals[i], []byte("payload")) {
			t.Fatalf("worker %d got %q", i, vals[i])
		}
		if !cached[i] {
			fresh++
		}
	}
	if fresh != 1 {
		t.Fatalf("%d workers reported a fresh compute, want exactly 1", fresh)
	}
	st := c.Stats()
	if st.Computes != 1 {
		t.Fatalf("stats report %d computes, want 1", st.Computes)
	}
	if st.Lookups() != workers {
		t.Fatalf("stats report %d lookups, want %d", st.Lookups(), workers)
	}
}

// TestEvictionRecomputesIdentical: entries evicted under byte-budget
// pressure recompute to byte-identical values — eviction can cost time,
// never correctness.
func TestEvictionRecomputesIdentical(t *testing.T) {
	// Budget fits ~4 of the 100-byte entries, so a 32-key sweep thrashes.
	store := NewMemoryStore(400)
	c := New(store)
	value := func(i int) []byte {
		return bytes.Repeat([]byte{byte(i)}, 100)
	}
	first := make(map[int][]byte)
	for i := 0; i < 32; i++ {
		v, _, err := c.GetOrCompute(testKey(i), func() ([]byte, error) { return value(i), nil })
		if err != nil {
			t.Fatal(err)
		}
		first[i] = append([]byte(nil), v...)
	}
	if store.Evictions() == 0 {
		t.Fatal("test is vacuous: no evictions happened under a 400-byte budget")
	}
	for i := 0; i < 32; i++ {
		v, _, err := c.GetOrCompute(testKey(i), func() ([]byte, error) { return value(i), nil })
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(v, first[i]) {
			t.Fatalf("key %d: recomputed bytes differ after eviction", i)
		}
	}
	if store.UsedBytes() > 400 {
		t.Fatalf("store holds %d bytes, budget is 400", store.UsedBytes())
	}
}

// TestNilCacheIsOff: the nil receiver is the documented cache-off mode —
// every call computes, nothing is stored, Stats and Scope are safe.
func TestNilCacheIsOff(t *testing.T) {
	var c *Cache
	n := 0
	for i := 0; i < 3; i++ {
		v, hit, err := c.GetOrCompute(testKey(1), func() ([]byte, error) { n++; return []byte("x"), nil })
		if err != nil || hit || string(v) != "x" {
			t.Fatalf("nil cache: v=%q hit=%v err=%v", v, hit, err)
		}
	}
	if n != 3 {
		t.Fatalf("nil cache computed %d times, want 3 (no memoization)", n)
	}
	if c.Scope() != nil {
		t.Fatal("Scope of nil cache must be nil")
	}
	if c.Stats() != (Stats{}) {
		t.Fatal("Stats of nil cache must be zero")
	}
}

// TestFetchDecodesEveryTime: Fetch stores a value's JSON encoding and
// decodes the stored bytes on a miss as on a hit, so a field the encoding
// drops is dropped from the fresh value too; a nil cache does the same
// without storing; a compute error is returned and not stored; stored
// bytes that do not decode are an error naming the key.
func TestFetchDecodesEveryTime(t *testing.T) {
	type value struct {
		Cycles  int64 `json:"cycles"`
		Skipped int64 `json:"-"` // a work counter, never stored
	}
	computes := 0
	compute := func() (value, error) { computes++; return value{Cycles: 7, Skipped: 3}, nil }
	store := NewMemoryStore(0)
	for name, c := range map[string]*Cache{"nil": nil, "mem": New(store)} {
		for i := 0; i < 2; i++ {
			v, err := Fetch(c, testKey(1), compute)
			if err != nil || v != (value{Cycles: 7}) {
				t.Fatalf("%s cache, call %d: %+v, %v; want {Cycles:7} with the unstored field zero", name, i, v, err)
			}
		}
	}
	if computes != 3 {
		t.Errorf("%d computes, want 3 (two with the nil cache, one miss)", computes)
	}
	if got, _ := store.Get(testKey(1)); string(got) != `{"cycles":7}` {
		t.Errorf("stored %q, want the JSON encoding", got)
	}

	boom := errors.New("boom")
	c := New(store)
	if _, err := Fetch(c, testKey(2), func() (value, error) { return value{}, boom }); !errors.Is(err, boom) {
		t.Fatalf("compute error: got %v, want boom", err)
	}
	if _, ok := store.Get(testKey(2)); ok {
		t.Fatal("a failed compute was stored")
	}
	store.Put(testKey(3), []byte("not json"))
	if _, err := Fetch(c, testKey(3), compute); err == nil || !strings.Contains(err.Error(), testKey(3).String()) {
		t.Fatalf("undecodable entry: got %v, want an error naming the key", err)
	}
}

// TestScopeStatsBubble: scopes count locally and into the parent chain,
// while sharing the parent's store (a scope hit on a parent-computed key).
func TestScopeStatsBubble(t *testing.T) {
	c := New(NewMemoryStore(0))
	s1 := c.Scope()
	s2 := c.Scope()

	if _, hit, _ := s1.GetOrCompute(testKey(1), func() ([]byte, error) { return []byte("a"), nil }); hit {
		t.Fatal("first compute reported as cache hit")
	}
	if _, hit, _ := s2.GetOrCompute(testKey(1), func() ([]byte, error) { return []byte("a"), nil }); !hit {
		t.Fatal("scope 2 missed a key scope 1 computed: store not shared")
	}

	if st := s1.Stats(); st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("scope 1 stats %+v, want 1 miss 0 hits", st)
	}
	if st := s2.Stats(); st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("scope 2 stats %+v, want 1 hit 0 misses", st)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("parent stats %+v, want the union (1 hit 1 miss)", st)
	}
}

// TestComputeErrorNotCached: a failed compute must not poison the key —
// the error propagates (to joiners too) and the next call retries.
func TestComputeErrorNotCached(t *testing.T) {
	c := New(NewMemoryStore(0))
	boom := errors.New("boom")
	if _, _, err := c.GetOrCompute(testKey(1), func() ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
	v, hit, err := c.GetOrCompute(testKey(1), func() ([]byte, error) { return []byte("ok"), nil })
	if err != nil || hit || string(v) != "ok" {
		t.Fatalf("retry after error: v=%q hit=%v err=%v", v, hit, err)
	}
	if _, hit, _ = c.GetOrCompute(testKey(1), func() ([]byte, error) { return []byte("ok"), nil }); !hit {
		t.Fatal("successful value was not cached")
	}
}

// TestPanicInComputeFailsJoinersAndPropagates: a panicking compute must
// re-panic on the leader's goroutine (where the worker pool isolates it)
// while joiners get an error, and the key stays usable afterwards.
func TestPanicInComputeFailsJoinersAndPropagates(t *testing.T) {
	c := New(NewMemoryStore(0))
	key := testKey(1)

	entered := make(chan struct{})
	release := make(chan struct{})
	leaderPanicked := make(chan bool, 1)
	go func() {
		defer func() { leaderPanicked <- recover() != nil }()
		c.GetOrCompute(key, func() ([]byte, error) {
			close(entered)
			<-release
			panic("kaboom")
		})
	}()
	<-entered

	joinErr := make(chan error, 1)
	go func() {
		_, _, err := c.GetOrCompute(key, func() ([]byte, error) {
			return nil, errors.New("joiner must not compute while leader is in flight")
		})
		joinErr <- err
	}()
	close(release)

	if !<-leaderPanicked {
		t.Fatal("panic did not propagate on the leader goroutine")
	}
	err := <-joinErr
	if err == nil {
		t.Fatal("joiner got nil error from a panicked leader")
	}
	// After the wreckage, the key must still compute normally.
	v, _, err := c.GetOrCompute(key, func() ([]byte, error) { return []byte("after"), nil })
	if err != nil || string(v) != "after" {
		t.Fatalf("key unusable after panic: v=%q err=%v", v, err)
	}
}

// TestMemoryStoreOversizedEntry: an entry larger than the whole budget is
// skipped rather than evicting everything for nothing.
func TestMemoryStoreOversizedEntry(t *testing.T) {
	store := NewMemoryStore(10)
	store.Put(testKey(1), []byte("fits"))
	store.Put(testKey(2), bytes.Repeat([]byte("x"), 11))
	if _, ok := store.Get(testKey(2)); ok {
		t.Fatal("oversized entry was stored")
	}
	if _, ok := store.Get(testKey(1)); !ok {
		t.Fatal("oversized Put evicted an unrelated entry")
	}
}

// TestMemoryStoreLRUOrder: Get refreshes recency, so the least recently
// *used* entry goes first, not the least recently inserted.
func TestMemoryStoreLRUOrder(t *testing.T) {
	store := NewMemoryStore(30)
	store.Put(testKey(1), bytes.Repeat([]byte("a"), 10))
	store.Put(testKey(2), bytes.Repeat([]byte("b"), 10))
	store.Put(testKey(3), bytes.Repeat([]byte("c"), 10))
	store.Get(testKey(1)) // refresh 1; LRU is now 2
	store.Put(testKey(4), bytes.Repeat([]byte("d"), 10))
	if _, ok := store.Get(testKey(2)); ok {
		t.Fatal("LRU entry 2 survived")
	}
	for _, i := range []int{1, 3, 4} {
		if _, ok := store.Get(testKey(i)); !ok {
			t.Fatalf("entry %d evicted out of LRU order", i)
		}
	}
}

// TestOpenVocabulary pins the flag vocabulary every binary shares.
func TestOpenVocabulary(t *testing.T) {
	if c, err := Open("off", "", 0); c != nil || err != nil {
		t.Fatalf("off: c=%v err=%v", c, err)
	}
	if c, err := Open("", "", 0); c != nil || err != nil {
		t.Fatalf("empty: c=%v err=%v", c, err)
	}
	if c, err := Open("mem", "", 0); c == nil || err != nil {
		t.Fatalf("mem: c=%v err=%v", c, err)
	}
	if c, err := Open("disk", t.TempDir(), 0); c == nil || err != nil {
		t.Fatalf("disk: c=%v err=%v", c, err)
	}
	if _, err := Open("disk", "", 0); err == nil {
		t.Fatal("disk without dir must error")
	}
	for _, name := range []string{"floppy", "memory"} {
		_, err := Open(name, "", 0)
		if want := fmt.Sprintf("resultcache: unknown cache backend %q (have: off, mem, disk)", name); err == nil || err.Error() != want {
			t.Fatalf("%s: err = %v, want %q", name, err, want)
		}
	}
}

// TestStatsString smoke-checks the log rendering.
func TestStatsString(t *testing.T) {
	s := Stats{Hits: 3, Misses: 1, Dedups: 0, Computes: 1}
	want := fmt.Sprintf("3 hits, 1 misses, 0 dedups, 1 computes (hit rate %.0f%%)", 75.0)
	if s.String() != want {
		t.Fatalf("got %q, want %q", s.String(), want)
	}
}
