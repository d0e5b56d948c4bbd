// Package testutil holds helpers shared by the determinism tests of the
// parallel kernel packages.
package testutil

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// WorkerMatrix returns the worker counts a determinism test sweeps:
// {1, 2, 4, 8, GOMAXPROCS} plus any comma-separated extras in the
// QBEEP_TEST_WORKERS environment variable (make race widens the sweep
// through it), deduplicated in first-seen order.
func WorkerMatrix(t testing.TB) []int {
	t.Helper()
	counts := []int{1, 2, 4, 8, runtime.GOMAXPROCS(0)}
	if env := os.Getenv("QBEEP_TEST_WORKERS"); env != "" {
		for _, f := range strings.Split(env, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || v < 1 {
				t.Fatalf("QBEEP_TEST_WORKERS entry %q: %v", f, err)
			}
			counts = append(counts, v)
		}
	}
	seen := map[int]bool{}
	out := counts[:0]
	for _, w := range counts {
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}
