package machine

import (
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

func henriCluster(t *testing.T) *Cluster {
	t.Helper()
	return NewCluster(topology.Henri(), 2, 1)
}

func TestNewClusterShape(t *testing.T) {
	c := henriCluster(t)
	if len(c.Nodes) != 2 {
		t.Fatalf("nodes = %d", len(c.Nodes))
	}
	n := c.Nodes[0]
	if got := len(n.numa); got != 4 {
		t.Fatalf("NUMA nodes = %d, want 4", got)
	}
	// 4 NUMA nodes → 6 unordered links.
	if got := len(n.links); got != 6 {
		t.Fatalf("links = %d, want 6", got)
	}
	if n.Link(0, 3) != n.Link(3, 0) {
		t.Fatal("link lookup not symmetric")
	}
}

func TestInvalidSpecPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid spec accepted")
		}
	}()
	bad := topology.Henri()
	bad.Sockets = 0
	NewCluster(bad, 1, 1)
}

func TestCtrlCapacityTracksUncore(t *testing.T) {
	c := henriCluster(t)
	n := c.Nodes[0]
	idleCap := n.NUMA(0).Ctrl.Capacity()
	// Idle uncore = 1.2 GHz = half of max → half the controller bandwidth.
	want := 50e9 * 0.5
	if math.Abs(idleCap-want) > 1e6 {
		t.Fatalf("idle ctrl capacity %v, want %v", idleCap, want)
	}
	// Activate cores: uncore ramps to max.
	for i := 0; i < 4; i++ {
		n.Freq.SetActive(i, topology.Scalar)
	}
	if got := n.NUMA(0).Ctrl.Capacity(); math.Abs(got-50e9) > 1e6 {
		t.Fatalf("active ctrl capacity %v, want 50e9", got)
	}
}

func TestStreamCensusDegradesCapacity(t *testing.T) {
	c := henriCluster(t)
	n := c.Nodes[0]
	for i := 0; i < 4; i++ {
		n.Freq.SetActive(i, topology.Scalar) // uncore to max
	}
	full := n.NUMA(0).Ctrl.Capacity()
	for i := 0; i < 10; i++ {
		n.addStream(0)
	}
	reduced := n.NUMA(0).Ctrl.Capacity()
	wantEff := 1 / (1 + 0.008*9)
	if math.Abs(reduced/full-wantEff) > 1e-9 {
		t.Fatalf("10-stream efficiency %v, want %v", reduced/full, wantEff)
	}
	for i := 0; i < 10; i++ {
		n.removeStream(0)
	}
	if n.NUMA(0).Ctrl.Capacity() != full {
		t.Fatal("capacity not restored after streams end")
	}
}

func TestStreamCensusUnderflowPanics(t *testing.T) {
	c := henriCluster(t)
	defer func() {
		if recover() == nil {
			t.Fatal("underflow accepted")
		}
	}()
	c.Nodes[0].removeStream(0)
}

func TestDMAPriorityGrowsWithStreams(t *testing.T) {
	c := henriCluster(t)
	n := c.Nodes[0]
	p0 := n.DMAPriority(0)
	if p0 != 1.0 {
		t.Fatalf("idle DMA priority %v, want 1.0", p0)
	}
	for i := 0; i < 35; i++ {
		n.addStream(0)
	}
	p35 := n.DMAPriority(0)
	if math.Abs(p35-(1.0+0.06*35)) > 1e-12 {
		t.Fatalf("35-stream DMA priority %v", p35)
	}
}

func TestMemPathLocalAndRemote(t *testing.T) {
	c := henriCluster(t)
	n := c.Nodes[0]
	local := n.MemPath(1, 1)
	if len(local) != 1 || local[0].Resource != n.NUMA(1).Ctrl {
		t.Fatalf("local path %v", local)
	}
	remote := n.MemPath(1, 3)
	if len(remote) != 2 || remote[0].Resource != n.NUMA(3).Ctrl || remote[1].Resource != n.Link(1, 3) {
		t.Fatalf("remote path %v", remote)
	}
}

func TestAccessLatencyLocalVsRemote(t *testing.T) {
	c := henriCluster(t)
	n := c.Nodes[0]
	// Pin uncore to max so only the local/remote base differs.
	n.Freq.SetUncoreFixed(2.4)
	local := n.AccessLatency(0, 0)
	remote := n.AccessLatency(0, 2)
	if local != sim.Duration(80) {
		t.Fatalf("uncontended local latency %v, want 80ns", local)
	}
	if remote != sim.Duration(150) {
		t.Fatalf("uncontended remote latency %v, want 150ns", remote)
	}
}

func TestAccessLatencyUncoreScaling(t *testing.T) {
	c := henriCluster(t)
	n := c.Nodes[0]
	n.Freq.SetUncoreFixed(1.2)
	// UncoreLatFactor 0.25, ratio max/f = 2 → base × 1.25.
	if got := n.AccessLatency(0, 0); got != sim.Duration(100) {
		t.Fatalf("low-uncore local latency %v, want 100ns", got)
	}
}

func TestAccessLatencyInflatesUnderContention(t *testing.T) {
	c := henriCluster(t)
	n := c.Nodes[0]
	n.Freq.SetUncoreFixed(2.4)
	quiet := n.AccessLatency(3, 0)
	// Saturate NUMA 0's controller.
	var cancels []func()
	for i := 0; i < 20; i++ {
		cancels = append(cancels, n.BackgroundStream("hog", 0, 0, 5e9))
	}
	loaded := n.AccessLatency(3, 0)
	if loaded <= quiet {
		t.Fatalf("latency under load %v not above quiet %v", loaded, quiet)
	}
	// Capped at ContentionMaxFactor per resource (plus the idle link).
	max := sim.Duration(float64(quiet) * (1 + 2*(3.0-1)))
	if loaded > max {
		t.Fatalf("latency %v beyond cap %v", loaded, max)
	}
	for _, cancel := range cancels {
		cancel()
	}
	if got := n.AccessLatency(3, 0); got != quiet {
		t.Fatalf("latency %v after cancel, want %v", got, quiet)
	}
}

func TestExecCyclesDuration(t *testing.T) {
	c := henriCluster(t)
	n := c.Nodes[0]
	n.Freq.SetUserspace(2.3)
	var d sim.Duration
	c.K.Spawn("t", func(p *sim.Proc) {
		start := p.Now()
		n.ExecCycles(p, 0, 2300)
		d = p.Now().Sub(start)
	})
	c.K.Run()
	if d != sim.Duration(sim.Microsecond) {
		t.Fatalf("2300 cycles at 2.3GHz took %v, want 1us", d)
	}
}

func TestExecComputePureCPUBound(t *testing.T) {
	c := henriCluster(t)
	n := c.Nodes[0]
	var d sim.Duration
	c.K.Spawn("t", func(p *sim.Proc) {
		// 1e9 flops scalar at 2.5 GHz × 4 flops/cycle = 10 Gflop/s → 0.1 s.
		d = n.ExecCompute(p, 0, ComputeSpec{Flops: 1e9, Class: topology.Scalar})
	})
	c.K.Run()
	if math.Abs(d.Seconds()-0.1) > 1e-6 {
		t.Fatalf("CPU-bound slice took %v, want 0.1s", d)
	}
	// No memory traffic → no stalls.
	if st := n.Counters.StallFraction(); st != 0 {
		t.Fatalf("stall fraction %v for pure CPU work", st)
	}
}

func TestExecComputeMemoryBound(t *testing.T) {
	c := henriCluster(t)
	n := c.Nodes[0]
	var d sim.Duration
	c.K.Spawn("t", func(p *sim.Proc) {
		// AI = 0.125 flop/B: deeply memory-bound. Rate = min(12 GB/s
		// per-core cap, ctrl) → 12 GB/s. 1.2e9 bytes → 0.1 s.
		d = n.ExecCompute(p, 0, ComputeSpec{
			Flops: 0.15e9, Bytes: 1.2e9, Class: topology.Scalar, MemNUMA: 0,
		})
	})
	c.K.Run()
	if math.Abs(d.Seconds()-0.1) > 1e-3 {
		t.Fatalf("memory-bound slice took %v, want ~0.1s", d)
	}
	if st := n.Counters.StallFraction(); st < 0.3 {
		t.Fatalf("stall fraction %v, want substantial for memory-bound work", st)
	}
}

func TestExecComputeContendedSharesController(t *testing.T) {
	c := henriCluster(t)
	n := c.Nodes[0]
	const streams = 8
	durs := make([]sim.Duration, streams)
	for i := 0; i < streams; i++ {
		i := i
		c.K.Spawn("stream", func(p *sim.Proc) {
			durs[i] = n.ExecCompute(p, i, ComputeSpec{
				Flops: 1, Bytes: 1.2e9, Class: topology.Scalar, MemNUMA: 0,
			})
		})
	}
	c.K.Run()
	// 8 streams × 12 GB/s demand = 96 > 50 GB/s controller (minus the
	// efficiency loss): each gets ~6 GB/s → ~0.2 s.
	for i, d := range durs {
		if d.Seconds() < 0.15 {
			t.Fatalf("stream %d took %v; contention not applied", i, d)
		}
	}
	if c.K.LiveProcs() != 0 {
		t.Fatal("leaked procs")
	}
}

func TestExecComputeIdlesCoreAfter(t *testing.T) {
	c := henriCluster(t)
	n := c.Nodes[0]
	c.K.Spawn("t", func(p *sim.Proc) {
		n.ExecCompute(p, 0, ComputeSpec{Flops: 1e6, Class: topology.AVX512})
	})
	c.K.Run()
	if n.Freq.ActiveCores() != 0 {
		t.Fatalf("%d cores still active", n.Freq.ActiveCores())
	}
	if n.Freq.CoreGHz(0) != 1.0 {
		t.Fatalf("core 0 at %v after kernel, want idle 1.0", n.Freq.CoreGHz(0))
	}
}

func TestFrequencyChangeRescalesRunningFlow(t *testing.T) {
	c := henriCluster(t)
	n := c.Nodes[0]
	n.Freq.SetUserspace(2.3)
	var d sim.Duration
	c.K.Spawn("t", func(p *sim.Proc) {
		// 0.92e9 flops at 2.3GHz×4 = 9.2 Gflop/s → would take 0.1 s.
		d = n.ExecCompute(p, 0, ComputeSpec{Flops: 0.92e9, Class: topology.Scalar})
	})
	// Halfway through, drop the frequency to 1.0 GHz: remaining 0.46e9
	// flops at 4 Gflop/s take 0.115 s → total 0.165 s.
	c.K.At(sim.Time(50*sim.Millisecond), func() { n.Freq.SetUserspace(1.0) })
	c.K.Run()
	if math.Abs(d.Seconds()-0.165) > 1e-3 {
		t.Fatalf("rescaled kernel took %v, want 0.165s", d)
	}
}

func TestAllocPolicies(t *testing.T) {
	c := henriCluster(t)
	n := c.Nodes[0]
	b := n.Alloc(1<<20, 2)
	if b.NUMA != 2 || b.Size != 1<<20 {
		t.Fatalf("Alloc: %+v", b)
	}
	ft := n.AllocFirstTouch(4096, 17) // core 17 is on NUMA 1
	if ft.NUMA != 1 {
		t.Fatalf("first-touch NUMA %d, want 1", ft.NUMA)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative size accepted")
		}
	}()
	n.Alloc(-1, 0)
}

func TestJitterBoundsAndDeterminism(t *testing.T) {
	c := henriCluster(t)
	n := c.Nodes[0]
	base := sim.Duration(1000)
	for i := 0; i < 100; i++ {
		j := n.Jitter(base, 0.1)
		if j < 900 || j > 1100 {
			t.Fatalf("jitter %v outside ±10%%", j)
		}
	}
	if n.Jitter(base, 0) != base {
		t.Fatal("zero-frac jitter changed value")
	}
}

func TestMemAccessesBlocksProportionally(t *testing.T) {
	c := henriCluster(t)
	n := c.Nodes[0]
	n.Freq.SetUncoreFixed(2.4)
	var d sim.Duration
	c.K.Spawn("t", func(p *sim.Proc) {
		start := p.Now()
		n.MemAccesses(p, 0, 0, 4) // 4 local accesses at 80 ns
		d = p.Now().Sub(start)
	})
	c.K.Run()
	if d != sim.Duration(320) {
		t.Fatalf("4 local accesses took %v, want 320ns", d)
	}
}

func TestExecComputeWorkerLocalData(t *testing.T) {
	// MemNUMA = -1 resolves to the executing core's NUMA node: a core on
	// NUMA 2 must stream through its own controller only.
	c := henriCluster(t)
	n := c.Nodes[0]
	c.K.Spawn("w", func(p *sim.Proc) {
		n.ExecCompute(p, 20, ComputeSpec{ // core 20 is on NUMA 2
			Flops: 1, Bytes: 1e8, Class: topology.AVX2, MemNUMA: -1,
		})
	})
	ran := false
	c.K.At(sim.Time(sim.Millisecond), func() {
		ran = true
		if got := n.Streams(2); got != 1 {
			t.Errorf("stream census on NUMA 2 = %d, want 1", got)
		}
		if got := n.Streams(0); got != 0 {
			t.Errorf("stream census on NUMA 0 = %d, want 0", got)
		}
		if u := n.Link(2, 0).Utilization(); u != 0 {
			t.Errorf("cross link utilization %v, want 0 for local stream", u)
		}
	})
	c.K.Run()
	if !ran {
		t.Fatal("probe did not run")
	}
}

// TestExecComputeUnwindReleasesBatch: however an execution slice ends —
// a panic while it opens, or a kernel Shutdown unwinding its wait —
// the core goes idle, the stream census is left, and the fluid model's
// batch scopes are closed, so the next mutation re-solves at once.
func TestExecComputeUnwindReleasesBatch(t *testing.T) {
	check := func(what string, c *Cluster) {
		t.Helper()
		n := c.Nodes[0]
		if got := n.Freq.ActiveCores(); got != 0 {
			t.Errorf("%s: %d cores still active", what, got)
		}
		if got := n.Streams(0); got != 0 {
			t.Errorf("%s: %d streams left on NUMA 0", what, got)
		}
		if f := c.Fluid.StartFlow("probe", 1, 1, nil, nil); f.Rate() != 1 {
			t.Errorf("%s: probe rate %v, want 1 — the fluid model is still held", what, f.Rate())
		}
	}
	for _, tc := range []struct {
		what string
		spec ComputeSpec
	}{
		{"flow start panics", ComputeSpec{Flops: math.NaN(), Class: topology.Scalar}},
		{"stream census panics", ComputeSpec{Flops: 1, Bytes: 1e6, Class: topology.Scalar, MemNUMA: 99}},
	} {
		c := henriCluster(t)
		c.K.Spawn("t", func(p *sim.Proc) { c.Nodes[0].ExecCompute(p, 0, tc.spec) })
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.what)
				}
			}()
			c.K.Run()
		}()
		check(tc.what, c)
	}

	c := henriCluster(t)
	c.K.Spawn("t", func(p *sim.Proc) {
		c.Nodes[0].ExecCompute(p, 0, ComputeSpec{Flops: 1, Bytes: 1.2e9, Class: topology.Scalar, MemNUMA: 0})
	})
	c.K.RunUntil(sim.Time(10 * sim.Millisecond))
	if c.Nodes[0].Streams(0) != 1 {
		t.Fatal("slice not running")
	}
	c.K.Shutdown()
	check("shutdown", c)
}
