package main

import (
	"strings"
	"testing"
)

// TestNegativeFlagsAreUsageErrors: a negative count or duration fails
// right after flag parsing instead of standing in for the default. Every
// row binds an address that cannot be listened on, so a run that accepted
// the value fails there (with another message) instead of serving.
func TestNegativeFlagsAreUsageErrors(t *testing.T) {
	for _, c := range []struct{ flag, value string }{
		{"-workers", "-3"},
		{"-queue", "-1"},
		{"-max-body", "-5"},
		{"-cache-budget", "-1"},
		{"-shard-workers", "-2"},
		{"-job-timeout", "-1s"},
		{"-drain-timeout", "-1s"},
		{"-retry-after", "-1s"},
	} {
		var out strings.Builder
		err := run([]string{"-addr", "no port", c.flag, c.value}, &out)
		if want := c.flag + " must be >= 0"; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s %s: err = %v, want %q", c.flag, c.value, err, want)
		}
		if out.Len() != 0 {
			t.Errorf("%s %s: printed %q before failing", c.flag, c.value, out.String())
		}
	}
}
