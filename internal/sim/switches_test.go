package sim_test

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/bench"
)

// Exact process-switch counts for fixed campaign points. A switch is one
// resume of a simulated process by the kernel, so these counts pin the
// process layer's work independently of the host: any change to how
// processes block and wake (or to event order) moves them. They were
// recorded with the goroutine/channel process implementation and must
// stay identical under every later one, serial or concurrent.
var pinnedSwitches = map[string]uint64{
	"contention/data=near/comm=far/kernel=triad-default/cores=5":   5742,
	"contention/data=near/comm=far/kernel=triad-default/cores=20":  7002,
	"contention/data=near/comm=near/kernel=triad-default/cores=1":  5328,
	"contention/data=near/comm=near/kernel=triad-default/cores=15": 6642,
	"contention/data=near/comm=far/kernel=triad-default/cores=1":   5328,
	"contention/data=near/comm=far/kernel=triad-default/cores=15":  6642,
	"contention/data=far/comm=near/kernel=triad-default/cores=1":   5328,
	"contention/data=far/comm=near/kernel=triad-default/cores=15":  6642,
	"contention/data=far/comm=far/kernel=triad-default/cores=1":    5328,
	"contention/data=far/comm=far/kernel=triad-default/cores=15":   6642,
}

// pinnedCrashCGSwitches is the total for the whole faults-crash-cg
// experiment (it is not compiled to points).
const pinnedCrashCGSwitches uint64 = 2482

// switchRecorder is a PointRunner that executes points on a pool of
// `workers` goroutines and records each point's switch count.
type switchRecorder struct {
	workers int
	mu      sync.Mutex
	got     map[string]uint64
}

func (r *switchRecorder) RunPoints(env bench.Env, pts []bench.Point) []bench.PointRecord {
	recs := make([]bench.PointRecord, len(pts))
	var wg sync.WaitGroup
	next := make(chan int, len(pts))
	for i := range pts {
		next <- i
	}
	close(next)
	for w := 0; w < r.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				recs[i] = bench.ExecutePoint(env, pts[i])
			}
		}()
	}
	wg.Wait()
	r.mu.Lock()
	for i, rec := range recs {
		r.got[pts[i].Key] = rec.Switches
	}
	r.mu.Unlock()
	return recs
}

// switchPointCounts runs the pinned fig4 and fig5 points through a
// recorder with the given worker count.
func switchPointCounts(workers int) map[string]uint64 {
	rec := &switchRecorder{workers: workers, got: map[string]uint64{}}
	env := bench.DefaultEnv()
	env.Sched = rec
	bench.Fig4Contention(env, bench.ContentionConfig{
		Data: bench.Near, CommThread: bench.Far, CoreCounts: []int{5, 20},
	})
	bench.Fig5Placement(env, []int{1, 15})
	return rec.got
}

func crashCGSwitches() uint64 {
	env := bench.DefaultEnv()
	env.Meter = &bench.Meter{}
	bench.CrashCG(env)
	return env.Meter.Switches()
}

func TestSwitchesPinnedSerial(t *testing.T) {
	checkPointSwitches(t, switchPointCounts(1))
	if got := crashCGSwitches(); got != pinnedCrashCGSwitches {
		t.Errorf("faults-crash-cg: %d switches, pinned %d", got, pinnedCrashCGSwitches)
	}
}

// TestSwitchesPinnedConcurrent runs the same points on eight workers —
// pooled worlds then hop between goroutines — and concurrent copies of
// faults-crash-cg; every count must equal the serial pin.
func TestSwitchesPinnedConcurrent(t *testing.T) {
	const workers = 8
	for round := 0; round < 2; round++ {
		checkPointSwitches(t, switchPointCounts(workers))
	}
	got := make([]uint64, runtime.GOMAXPROCS(0)+1)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = crashCGSwitches()
		}()
	}
	wg.Wait()
	for i, n := range got {
		if n != pinnedCrashCGSwitches {
			t.Errorf("faults-crash-cg copy %d: %d switches, pinned %d", i, n, pinnedCrashCGSwitches)
		}
	}
}

func checkPointSwitches(t *testing.T, got map[string]uint64) {
	t.Helper()
	if len(got) != len(pinnedSwitches) {
		t.Errorf("recorded %d points, pinned %d", len(got), len(pinnedSwitches))
	}
	for key, want := range pinnedSwitches {
		if got[key] != want {
			t.Errorf("%s: %d switches, pinned %d", key, got[key], want)
		}
	}
}
