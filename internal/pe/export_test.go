package pe

import "testing"

// SetMaxAhead sets the run-ahead bound for the rest of the test. At 1
// every locally retired operation hands back to the core at once, which is
// the one-operation-per-fetch interleaving the default is compared with.
func SetMaxAhead(t testing.TB, n int64) {
	old := maxAhead
	maxAhead = n
	t.Cleanup(func() { maxAhead = old })
}
