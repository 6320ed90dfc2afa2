package sim_test

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/bench"
)

// Exact fluid re-solve counts for the points switches_test.go pins,
// with the kernel-event and process-switch counts of the same runs. A
// re-solve is one progressive-filling pass over a component with flows
// (fluid.Model.Solves), so these pin the fluid layer's work the way
// switch counts pin the process layer's. Batched mutations (one
// re-solve per machine state change, see fluid.Model.Hold) cut the
// solves and must leave steps and switches exactly as they were.
//
// Before batching the solve counts were, in table order: 3192, 5523,
// 2295, 4926, 2295, 4926, 2085, 4716, 2085, 4716; faults-crash-cg 1456.
var pinnedWork = map[string]workCounts{
	"contention/data=near/comm=far/kernel=triad-default/cores=5":   {steps: 9528, switches: 5742, solves: 2748},
	"contention/data=near/comm=far/kernel=triad-default/cores=20":  {steps: 11679, switches: 7002, solves: 4179},
	"contention/data=near/comm=near/kernel=triad-default/cores=1":  {steps: 8805, switches: 5328, solves: 2241},
	"contention/data=near/comm=near/kernel=triad-default/cores=15": {steps: 11082, switches: 6642, solves: 3822},
	"contention/data=near/comm=far/kernel=triad-default/cores=1":   {steps: 8805, switches: 5328, solves: 2241},
	"contention/data=near/comm=far/kernel=triad-default/cores=15":  {steps: 11082, switches: 6642, solves: 3822},
	"contention/data=far/comm=near/kernel=triad-default/cores=1":   {steps: 8805, switches: 5328, solves: 2031},
	"contention/data=far/comm=near/kernel=triad-default/cores=15":  {steps: 11082, switches: 6642, solves: 3612},
	"contention/data=far/comm=far/kernel=triad-default/cores=1":    {steps: 8805, switches: 5328, solves: 2031},
	"contention/data=far/comm=far/kernel=triad-default/cores=15":   {steps: 11082, switches: 6642, solves: 3612},
}

// pinnedCrashCGWork is the total for the whole faults-crash-cg
// experiment (it is not compiled to points).
var pinnedCrashCGWork = workCounts{steps: 2983, switches: 2482, solves: 1113}

// workCounts are a run's exact work counters.
type workCounts struct{ steps, switches, solves uint64 }

// workRecorder is a PointRunner that executes points on a pool of
// `workers` goroutines and records each point's work counters.
type workRecorder struct {
	workers int
	mu      sync.Mutex
	got     map[string]workCounts
}

func (r *workRecorder) RunPoints(env bench.Env, pts []bench.Point) []bench.PointRecord {
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
		r.got[pts[i].Key] = workCounts{rec.Steps, rec.Switches, rec.Solves}
	}
	r.mu.Unlock()
	return recs
}

// pointWork runs the pinned fig4 and fig5 points through a recorder
// with the given worker count.
func pointWork(workers int) map[string]workCounts {
	rec := &workRecorder{workers: workers, got: map[string]workCounts{}}
	env := bench.DefaultEnv()
	env.Sched = rec
	bench.Fig4Contention(env, bench.ContentionConfig{
		Data: bench.Near, CommThread: bench.Far, CoreCounts: []int{5, 20},
	})
	bench.Fig5Placement(env, []int{1, 15})
	return rec.got
}

func crashCGWork() workCounts {
	env := bench.DefaultEnv()
	env.Meter = &bench.Meter{}
	bench.CrashCG(env)
	return workCounts{env.Meter.Steps(), env.Meter.Switches(), env.Meter.Solves()}
}

func TestSolvesPinnedSerial(t *testing.T) {
	checkPointWork(t, pointWork(1))
	if got := crashCGWork(); got != pinnedCrashCGWork {
		t.Errorf("faults-crash-cg: %+v, pinned %+v", got, pinnedCrashCGWork)
	}
}

// TestSolvesPinnedConcurrent runs the same points on eight workers,
// so pooled and fresh worlds mix differently, and concurrent copies of
// faults-crash-cg; every count must equal the serial pin.
func TestSolvesPinnedConcurrent(t *testing.T) {
	const workers = 8
	for round := 0; round < 2; round++ {
		checkPointWork(t, pointWork(workers))
	}
	got := make([]workCounts, runtime.GOMAXPROCS(0)+1)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = crashCGWork()
		}()
	}
	wg.Wait()
	for i, w := range got {
		if w != pinnedCrashCGWork {
			t.Errorf("faults-crash-cg copy %d: %+v, pinned %+v", i, w, pinnedCrashCGWork)
		}
	}
}

func checkPointWork(t *testing.T, got map[string]workCounts) {
	t.Helper()
	if len(got) != len(pinnedWork) {
		t.Errorf("recorded %d points, pinned %d", len(got), len(pinnedWork))
	}
	for key, want := range pinnedWork {
		if got[key] != want {
			t.Errorf("%s: %+v, pinned %+v", key, got[key], want)
		}
	}
}
