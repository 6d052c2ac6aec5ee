package main

import (
	"strings"
	"testing"
)

// TestInvalidNumbersAreUsageErrors: a negative count or duration and a
// negative or non-finite rate fail right after flag parsing, before the
// scenario file is even looked for, instead of standing in for the
// closed loop or one worker.
func TestInvalidNumbersAreUsageErrors(t *testing.T) {
	for _, c := range []struct{ flag, value, want string }{
		{"-rate", "-5", "-rate must be a finite number >= 0"},
		{"-rate", "NaN", "-rate must be a finite number >= 0"},
		{"-rate", "+Inf", "-rate must be a finite number >= 0"},
		{"-concurrency", "-1", "-concurrency must be >= 0"},
		{"-job-wait", "-1s", "-job-wait must be >= 0"},
	} {
		var out strings.Builder
		err := run([]string{c.flag, c.value}, &out)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s %s: err = %v, want %q", c.flag, c.value, err, c.want)
		}
	}
}
