package runner

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
)

// TestRepeatedRunsLeakNoCoroutines runs the experiments whose worlds are
// never pooled — faults-crash-cg (not compiled to points, ranks left
// blocked by the crash), fabric-pingpong (fabric worlds) and a
// fault-injected sweep point — twenty times each, and demands that the
// goroutine count returns to its starting value: every simulated
// process coroutine of a dropped world must be stopped.
func TestRepeatedRunsLeakNoCoroutines(t *testing.T) {
	if testing.Short() {
		t.Skip("repeated campaigns; skipped with -short")
	}
	env := testEnv(t)
	faulty := testEnv(t)
	sched, err := fault.ParseSpec("loss:p=0.2")
	if err != nil {
		t.Fatal(err)
	}
	faulty.Faults = sched
	lookup := func(id string) core.Experiment {
		e, ok := core.ByID(id)
		if !ok {
			t.Fatalf("no experiment %q", id)
		}
		return e
	}
	healthy := []core.Experiment{lookup("faults-crash-cg"), lookup("fabric-pingpong")}
	injected := []core.Experiment{lookup("fig3")}
	round := func() {
		for _, res := range Collect(Run(env, healthy, Options{Workers: 2})) {
			if res.Err != nil {
				t.Fatalf("%s: %v", res.Exp.ID, res.Err)
			}
		}
		for _, res := range Collect(Run(faulty, injected, Options{Workers: 2})) {
			if res.Err != nil {
				t.Fatalf("%s under faults: %v", res.Exp.ID, res.Err)
			}
		}
	}
	round() // warm up lazily started runtime and package goroutines
	base := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		round()
	}
	// Stopped coroutines and finished pool workers exit asynchronously.
	const slack = 4
	deadline := time.Now().Add(5 * time.Second)
	n := runtime.NumGoroutine()
	for n > base+slack && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > base+slack {
		t.Fatalf("goroutines grew from %d to %d over 20 rounds", base, n)
	}
}
