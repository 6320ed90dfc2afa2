package sim

import (
	"runtime"
	"testing"
	"time"
)

func TestProcSleepAdvancesClock(t *testing.T) {
	k := NewKernel(1)
	var woke Time
	k.Spawn("sleeper", func(p *Proc) {
		p.Sleep(2 * Microsecond)
		woke = p.Now()
	})
	k.Run()
	if woke != Time(2*Microsecond) {
		t.Fatalf("woke at %v, want 2us", woke)
	}
	if k.LiveProcs() != 0 {
		t.Fatalf("%d live procs after Run", k.LiveProcs())
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	k := NewKernel(1)
	var got []string
	for _, name := range []string{"a", "b"} {
		name := name
		k.Spawn(name, func(p *Proc) {
			for i := 0; i < 3; i++ {
				got = append(got, name)
				p.Sleep(10)
			}
		})
	}
	k.Run()
	want := []string{"a", "b", "a", "b", "a", "b"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("interleaving %v, want %v", got, want)
		}
	}
}

func TestSignalWakesFIFO(t *testing.T) {
	k := NewKernel(1)
	s := NewSignal(k)
	var got []string
	for _, name := range []string{"first", "second"} {
		name := name
		k.Spawn(name, func(p *Proc) {
			s.Wait(p)
			got = append(got, name)
		})
	}
	k.Spawn("waker", func(p *Proc) {
		p.Sleep(100)
		if s.Waiters() != 2 {
			t.Errorf("waiters = %d, want 2", s.Waiters())
		}
		s.Signal()
		p.Sleep(100)
		s.Signal()
	})
	k.Run()
	if len(got) != 2 || got[0] != "first" || got[1] != "second" {
		t.Fatalf("wake order %v", got)
	}
}

func TestSignalBroadcast(t *testing.T) {
	k := NewKernel(1)
	s := NewSignal(k)
	n := 0
	for i := 0; i < 5; i++ {
		k.Spawn("w", func(p *Proc) {
			s.Wait(p)
			n++
		})
	}
	k.Spawn("b", func(p *Proc) {
		p.Sleep(10)
		s.Broadcast()
	})
	k.Run()
	if n != 5 {
		t.Fatalf("broadcast woke %d of 5", n)
	}
}

func TestDeadlockedProcIsReported(t *testing.T) {
	k := NewKernel(1)
	s := NewSignal(k)
	k.Spawn("stuck", func(p *Proc) { s.Wait(p) })
	k.Run()
	if k.LiveProcs() != 1 {
		t.Fatalf("LiveProcs = %d, want 1 (deadlocked)", k.LiveProcs())
	}
	// Unstick it so the process finishes and its coroutine parks.
	s.Broadcast()
	k.Run()
	if k.LiveProcs() != 0 {
		t.Fatal("proc still live after broadcast")
	}
}

func TestProcPanicPropagates(t *testing.T) {
	k := NewKernel(1)
	k.Spawn("boom", func(p *Proc) { panic("boom") })
	defer func() {
		if recover() == nil {
			t.Error("panic in proc did not propagate to Run")
		}
	}()
	k.Run()
}

func TestQueueBlocksUntilPush(t *testing.T) {
	k := NewKernel(1)
	q := NewQueue[int](k)
	var got int
	var at Time
	k.Spawn("consumer", func(p *Proc) {
		got = q.Pop(p)
		at = p.Now()
	})
	k.Spawn("producer", func(p *Proc) {
		p.Sleep(500)
		q.Push(7)
	})
	k.Run()
	if got != 7 || at != 500 {
		t.Fatalf("got %d at %v, want 7 at 500", got, at)
	}
}

func TestQueueFIFOAndTryPop(t *testing.T) {
	k := NewKernel(1)
	q := NewQueue[int](k)
	q.Push(1)
	q.Push(2)
	if v, ok := q.TryPop(); !ok || v != 1 {
		t.Fatalf("TryPop = %d,%v", v, ok)
	}
	if q.Len() != 1 {
		t.Fatalf("Len = %d", q.Len())
	}
	if v, ok := q.TryPop(); !ok || v != 2 {
		t.Fatalf("TryPop = %d,%v", v, ok)
	}
	if _, ok := q.TryPop(); ok {
		t.Fatal("TryPop on empty queue succeeded")
	}
}

func TestSpawnFromProc(t *testing.T) {
	k := NewKernel(1)
	var childAt Time
	k.Spawn("parent", func(p *Proc) {
		p.Sleep(100)
		k.Spawn("child", func(c *Proc) {
			c.Sleep(50)
			childAt = c.Now()
		})
		p.Sleep(1000)
	})
	k.Run()
	if childAt != 150 {
		t.Fatalf("child finished at %v, want 150", childAt)
	}
}

func TestSleepZeroYields(t *testing.T) {
	k := NewKernel(1)
	var order []string
	k.Spawn("a", func(p *Proc) {
		order = append(order, "a1")
		p.Sleep(0)
		order = append(order, "a2")
	})
	k.Spawn("b", func(p *Proc) {
		order = append(order, "b1")
	})
	k.Run()
	// a yields at t=0, letting b run before a resumes.
	want := []string{"a1", "b1", "a2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

// runPanic runs k and returns the value it panicked with, if any.
func runPanic(k *Kernel) (v any) {
	defer func() { v = recover() }()
	k.Run()
	return nil
}

// TestProcPanicReraisedAndRecycled: a process panic is re-raised from
// Run with the process name, the kernel stays usable, and the panicked
// process's storage is recycled by the next Spawn, which runs its new
// body normally.
func TestProcPanicReraisedAndRecycled(t *testing.T) {
	k := NewKernel(1)
	x := k.Spawn("x", func(p *Proc) {
		p.Sleep(5)
		panic("kaboom")
	})
	if got, want := runPanic(k), `sim: process "x" panicked: kaboom`; got != want {
		t.Fatalf("Run panicked with %v, want %q", got, want)
	}
	if k.LiveProcs() != 0 {
		t.Fatalf("LiveProcs = %d after the panic, want 0", k.LiveProcs())
	}
	var doneAt Time
	y := k.Spawn("y", func(p *Proc) {
		p.Sleep(10)
		doneAt = p.Now()
	})
	if y != x {
		t.Error("Spawn after a panic did not recycle the finished process")
	}
	if v := runPanic(k); v != nil {
		t.Fatalf("recycled process panicked: %v", v)
	}
	if doneAt != 15 || y.Name() != "y" {
		t.Fatalf("recycled body finished at %v as %q, want 15 as \"y\"", doneAt, y.Name())
	}
}

// TestShutdownUnwindsBlockedProc: Shutdown stops a process blocked on a
// Signal by running its deferred calls without resuming its body; a
// later wake of the stopped process is a no-op, and the kernel remains
// usable.
func TestShutdownUnwindsBlockedProc(t *testing.T) {
	k := NewKernel(1)
	s := NewSignal(k)
	var deferred, resumed bool
	k.Spawn("blocked", func(p *Proc) {
		defer func() { deferred = true }()
		s.Wait(p)
		resumed = true
	})
	k.Run()
	k.Shutdown()
	if !deferred || resumed {
		t.Fatalf("after Shutdown: deferred=%v resumed=%v, want true false", deferred, resumed)
	}
	if k.LiveProcs() != 0 {
		t.Fatalf("LiveProcs = %d after Shutdown, want 0", k.LiveProcs())
	}
	s.Broadcast()
	k.Run()
	if resumed {
		t.Fatal("a stopped process resumed its body")
	}
	ran := false
	k.Spawn("after", func(p *Proc) {
		p.Sleep(1)
		ran = true
	})
	k.Run()
	if !ran {
		t.Fatal("kernel unusable after Shutdown")
	}
}

// TestShutdownStopsCoroutines: every coroutine a kernel started —
// parked after finishing, blocked on a signal, asleep on a pending
// timer, or spawned by a deferred call while Shutdown unwinds — is gone
// after Shutdown.
func TestShutdownStopsCoroutines(t *testing.T) {
	k := NewKernel(1)
	s := NewSignal(k)
	const n = 20
	for i := 0; i < n; i++ {
		k.Spawn("done", func(p *Proc) { p.Sleep(1) })
		k.Spawn("stuck", func(p *Proc) {
			defer k.Spawn("late", func(p *Proc) { p.Sleep(1) })
			s.Wait(p)
		})
		k.Spawn("asleep", func(p *Proc) { p.Sleep(1000) })
	}
	k.RunUntil(10)
	// Compare against the count just before Shutdown: goroutines of the
	// runtime or the test framework may come and go meanwhile, but only
	// stopped coroutines make the count drop by 3n and stay down.
	before := runtime.NumGoroutine()
	k.Shutdown()
	want := before - 3*n
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > want {
		t.Fatalf("%d goroutines after Shutdown, want ≤ %d (%d before)", got, want, before)
	}
	k.Run() // the sleepers' pending wakeups are no-ops now
	if k.LiveProcs() != 0 {
		t.Fatalf("LiveProcs = %d after Shutdown, want 0", k.LiveProcs())
	}
}

// TestSteadyStateSwitchesAllocateNothing: a Sleep switch, a Signal wake
// and a Spawn→finish cycle with recycling allocate nothing once warm.
func TestSteadyStateSwitchesAllocateNothing(t *testing.T) {
	k := NewKernel(1)
	defer k.Shutdown()
	s := NewSignal(k)
	k.Spawn("sleeper", func(p *Proc) {
		for {
			p.Sleep(1)
		}
	})
	k.Spawn("waiter", func(p *Proc) {
		for {
			s.Wait(p)
		}
	})
	k.RunUntil(k.Now())
	body := func(p *Proc) { p.Sleep(1) }
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"sleep switch", func() { k.Step() }},
		{"signal wake", func() { s.Signal(); k.RunUntil(k.Now()) }},
		{"spawn-finish", func() { k.Spawn("child", body); k.RunUntil(k.Now() + 1) }},
	} {
		if a := testing.AllocsPerRun(200, c.fn); a != 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", c.name, a)
		}
	}
}
