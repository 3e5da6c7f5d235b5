// Package partest holds what tests of the par fan-out share: pinning the
// pool size, and the one check every build stage is tested with — the same
// build under several pool sizes, bit for bit.
package partest

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// SetProcs pins GOMAXPROCS — the pool size par reads — until the test
// ends. The setting is process-wide: callers must not be t.Parallel.
func SetProcs(t *testing.T, procs int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// EachPool runs build under GOMAXPROCS 1 (the plain loop), 2 and 4, each
// time on a fresh rng seeded with seed, and fails t unless every run
// returns a value reflect.DeepEqual to the first run's and leaves the rng
// at the same next draw — a stage that drew inside a worker, or drew a
// different number of values, shows up there. It returns the
// GOMAXPROCS = 1 result. Like SetProcs, not for t.Parallel tests.
func EachPool[T any](t *testing.T, seed int64, build func(rng *rand.Rand) (T, error)) T {
	t.Helper()
	var want T
	var wantNext int64
	for i, procs := range []int{1, 2, 4} {
		SetProcs(t, procs)
		rng := rand.New(rand.NewSource(seed))
		got, err := build(rng)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		next := rng.Int63()
		if i == 0 {
			want, wantNext = got, next
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("GOMAXPROCS=%d: result differs from the GOMAXPROCS=1 build", procs)
		}
		if next != wantNext {
			t.Errorf("GOMAXPROCS=%d: rng stream diverged (next draw %d, GOMAXPROCS=1 left %d)", procs, next, wantNext)
		}
	}
	return want
}
