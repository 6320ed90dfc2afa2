package machine

import (
	"fmt"

	"repro/internal/fluid"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Buffer is a block of simulated memory pinned to a NUMA node.
type Buffer struct {
	Node *Node
	NUMA int
	Size int64
	// Registered tracks memory registration for RDMA (pin-down cache,
	// Tezuka et al.): the first rendezvous send of a buffer pays the
	// registration cost, recycled buffers do not.
	Registered bool
}

// Alloc allocates a buffer bound to the given NUMA node (the paper's
// explicit numactl-style allocation).
func (n *Node) Alloc(size int64, numa int) *Buffer {
	if size < 0 {
		panic(fmt.Sprintf("machine: negative buffer size %d", size))
	}
	n.NUMA(numa) // range check
	return &Buffer{Node: n, NUMA: numa, Size: size}
}

// AllocFirstTouch allocates a buffer on the NUMA node of the touching
// core (the default Linux policy, relevant for the StarPU study §5.3).
func (n *Node) AllocFirstTouch(size int64, core int) *Buffer {
	return n.Alloc(size, n.Spec.NUMAOfCore(core))
}

// ExecCycles burns a fixed number of CPU cycles on a core at its
// current frequency (software overheads, runtime costs). The caller is
// responsible for the core's active/idle census.
func (n *Node) ExecCycles(p *sim.Proc, core int, cycles float64) {
	if cycles <= 0 {
		return
	}
	n.gateUp(p)
	d := sim.Duration(float64(n.Freq.Cycles(core, cycles)) * n.CoreSlowdown(core))
	n.Counters.AddExec(core, cycles, 0, 0, 0)
	p.Sleep(d)
}

// MemAccesses blocks p for `count` serialized memory accesses from the
// core's NUMA node to memory on NUMA `to`, at the current load-dependent
// access latency. This is the building block of the small-message (PIO)
// software path.
func (n *Node) MemAccesses(p *sim.Proc, core int, to int, count float64) {
	if count <= 0 {
		return
	}
	n.gateUp(p)
	from := n.Spec.NUMAOfCore(core)
	lat := n.AccessLatency(from, to)
	p.Sleep(sim.Duration(float64(lat) * count))
}

// ComputeSpec describes one execution slice of a compute kernel on a
// core, in roofline terms.
type ComputeSpec struct {
	// Flops to retire and Bytes to move from/to memory. Bytes == 0 means
	// a pure CPU-bound slice (no memory traffic at all).
	Flops, Bytes float64
	// Class selects the vector licence and flops/cycle throughput.
	Class topology.VecClass
	// MemNUMA is where the data lives (ignored when Bytes == 0).
	// A negative value means "local to the executing core's NUMA node"
	// (cache-blocked kernels with locality-aware placement, e.g. GEMM
	// tiles).
	MemNUMA int
	// StallExposure scales how much of the memory-wait time the PMU
	// observes as stall cycles (out-of-order overlap hides some of it);
	// 1 exposes everything, 0 hides everything. Zero value defaults to 1.
	// The effective exposure also grows with the crossed controller's
	// utilization: prefetchers hide latency well on a quiet bus and
	// poorly on a saturated one (this is what makes Fig 10's stall
	// fraction rise with the worker count).
	StallExposure float64
	// BaseStallFrac is the kernel-intrinsic stall floor (compulsory
	// cache misses at tile/block boundaries) observed even on an idle
	// memory bus.
	BaseStallFrac float64
	// Name labels the fluid flow for diagnostics.
	Name string
}

// ExecCompute runs one kernel slice on a core, blocking p until it
// completes. It marks the core active for the frequency model, runs the
// slice as a fluid flow (memory-bound slices share controller/link
// bandwidth; all slices are capped by the core's compute ceiling at its
// live frequency), updates the PMU counters, and idles the core again.
//
// Returns the elapsed duration.
func (n *Node) ExecCompute(p *sim.Proc, core int, spec ComputeSpec) sim.Duration {
	if spec.Flops < 0 || spec.Bytes < 0 {
		panic(fmt.Sprintf("machine: negative work %+v", spec))
	}
	if spec.Flops == 0 && spec.Bytes == 0 {
		return 0
	}
	n.gateUp(p)
	exposure := spec.StallExposure
	if exposure == 0 {
		exposure = 1
	}
	name := spec.Name
	if name == "" {
		name = n.computeName(core)
	}
	coreNUMA := n.Spec.NUMAOfCore(core)
	memNUMA := spec.MemNUMA
	if memNUMA < 0 {
		memNUMA = coreNUMA
	}
	start := p.Now()
	done := n.cluster.K.GetSignal()

	// Opening and closing the slice are one fluid batch each (see
	// fluid.Model.Hold). The close is deferred so a panic, or a kernel
	// Shutdown unwinding the wait below, still idles the core and leaves
	// the stream census; stream names the NUMA node whose census the
	// slice joined, -1 until it has.
	stream := -1
	defer n.closeSlice(core, &stream)
	rk := &n.coreFlow[core]
	flow := n.openSlice(rk, name, spec, coreNUMA, memNUMA, &stream, done.BroadcastFn())
	rhoStart := 0.0
	if spec.Bytes > 0 {
		rhoStart = n.NUMA(memNUMA).Ctrl.Utilization()
	}
	done.Wait(p)
	rk.flow = nil
	n.cluster.K.PutSignal(done)
	// Nothing can reach the finished flow any more (the rescaling hooks
	// check rk.flow), so its storage goes back to the model.
	n.cluster.Fluid.Recycle(flow)

	elapsed := p.Now().Sub(start)
	n.accountExec(core, spec, memNUMA, exposure, rhoStart, elapsed)
	return elapsed
}

// openSlice marks the core active, has a memory-bound slice join its
// controller's stream census, and starts the slice's flow, deferring
// the fluid re-solve to the end.
func (n *Node) openSlice(rk *runningKernel, name string, spec ComputeSpec, coreNUMA, memNUMA int, stream *int, onDone func()) *fluid.Flow {
	fl := n.cluster.Fluid
	fl.Hold()
	defer fl.Release()
	n.Freq.SetActive(rk.core, spec.Class)
	rk.class = spec.Class
	if spec.Bytes == 0 {
		// Pure CPU: the flow is denominated in flops, capped by the
		// core's flop ceiling (which tracks frequency changes).
		rk.mem = false
		rk.ai = 0
		rk.flow = fl.StartFlow(name, spec.Flops, rk.cap(), nil, onDone)
		return rk.flow
	}
	// Roofline: the flow is denominated in bytes; its rate is capped by
	// the compute ceiling translated through the arithmetic intensity,
	// and it shares the memory path fairly.
	rk.mem = true
	rk.ai = spec.Flops / spec.Bytes
	n.addStream(memNUMA)
	*stream = memNUMA
	rk.flow = fl.StartFlow(name, spec.Bytes, rk.cap(), n.memPath(coreNUMA, memNUMA), onDone)
	return rk.flow
}

// closeSlice leaves the stream census the slice joined (if any) and
// idles the core, deferring the fluid re-solve to the end.
func (n *Node) closeSlice(core int, stream *int) {
	fl := n.cluster.Fluid
	fl.Hold()
	defer fl.Release()
	if *stream >= 0 {
		n.removeStream(*stream)
	}
	n.Freq.SetIdle(core)
}

// computeName returns the cached default flow name of a core's compute
// slice.
func (n *Node) computeName(core int) string {
	if n.computeNames == nil {
		n.computeNames = make([]string, len(n.coreFlow))
	}
	if n.computeNames[core] == "" {
		n.computeNames[core] = fmt.Sprintf("n%d.c%d.compute", n.ID, core)
	}
	return n.computeNames[core]
}

// accountExec updates the PMU model for a completed slice: total busy
// cycles from wall time at the core's frequency, and stalled cycles
// from the gap between the achieved rate and the compute ceiling. The
// observed fraction is the kernel's intrinsic floor plus the exposed
// memory-wait share, weighted by how loaded the crossed controller is
// (an idle bus lets prefetchers hide most of the wait).
func (n *Node) accountExec(core int, spec ComputeSpec, memNUMA int, exposure, rhoStart float64, elapsed sim.Duration) {
	fgHz := n.Freq.CoreGHz(core)
	secs := elapsed.Seconds()
	cycles := secs * fgHz * 1e9
	frac := spec.BaseStallFrac
	if secs > 0 && spec.Bytes > 0 {
		computeSecs := spec.Flops / n.Freq.FlopsRate(core, spec.Class)
		if computeSecs > secs {
			computeSecs = secs
		}
		raw := (secs - computeSecs) / secs
		// Bus utilization during the slice: the worse of the utilization
		// when the stream started (including itself) and the surviving
		// flows plus this slice's own average rate at the end.
		ctrl := n.NUMA(memNUMA).Ctrl
		rho := ctrl.Utilization() + spec.Bytes/secs/ctrl.Capacity()
		if rhoStart > rho {
			rho = rhoStart
		}
		if rho > 1 {
			rho = 1
		}
		frac += exposure * raw * (0.3 + 0.7*rho)
	}
	if frac > 0.95 {
		frac = 0.95
	}
	n.Counters.AddExec(core, cycles, frac*cycles, spec.Flops, spec.Bytes)
}

// BackgroundStream injects a continuous memory traffic flow (e.g. the
// cacheline traffic of polling workers hammering a shared task queue)
// from NUMA `from` to memory on NUMA `to` at the given rate in bytes/s.
// Stop it with the returned cancel function. Background streams do not
// count in the stream census (they model coherence traffic, not
// streaming reads), but they do consume controller bandwidth and raise
// utilization, which feeds the access-latency model.
func (n *Node) BackgroundStream(name string, from, to int, rate float64) (cancel func()) {
	if rate <= 0 {
		return func() {}
	}
	const forever = 1e18 // effectively unbounded work
	flow := n.cluster.Fluid.StartFlow(name, forever, rate, n.memPath(from, to), nil)
	return func() { n.cluster.Fluid.Cancel(flow) }
}
