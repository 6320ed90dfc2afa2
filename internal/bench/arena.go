package bench

import (
	"sync"

	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// The world arena recycles fully-drained simulated worlds (cluster +
// network + MPI communicator) across sweep points. Building a world is
// the dominant allocation cost of a point — kernel, fluid model,
// per-node resources, frequency models, ranks — and every point of a
// campaign builds several. Since almost all points share one node
// shape, a drained world can be rewound (Cluster.Reset, Network.Reset,
// World.Reset) and reused with a byte-identical event sequence, so the
// steady-state campaign allocates no worlds at all.
//
// Pooling is restricted to worlds that are provably clean:
//
//   - built inside a point execution, whose record (including its meter
//     reads) is sealed before the world is released;
//   - healthy (no fault injector): fault schedules leave retransmission
//     timers, watchers and per-run injector state behind;
//   - legacy two-node network (no fabric): fabric experiments size their
//     own clusters and bypass newWorld anyway;
//   - drained kernel: no pending events and no live processes.
//
// Every other world is shut down when its scope is released, which
// stops its process coroutines — parked ones and ones left blocked
// mid-body — so they do not outlive it.
//
// Worlds are keyed by the node shape so a point that mutates per-spec
// scalars (frequencies, bandwidths, NIC parameters) still reuses a
// world of the same geometry — Reset rebinds every spec-derived value.

// pooledWorld is one reusable world.
type pooledWorld struct {
	c *machine.Cluster
	w *mpi.World
}

// worldKeeper collects the worlds one scope builds — a point execution
// or an experiment attempt (see Env.Isolated) — so they can be released
// together once the scope's accounting is sealed. A scope runs on one
// goroutine, so the keeper needs no lock.
type worldKeeper struct {
	// pool marks a point-execution scope, whose eligible worlds are
	// recycled through the arena.
	pool bool
	// worlds are pool-eligible; kernels belong to every other world.
	worlds  []pooledWorld
	kernels []*sim.Kernel
}

// worldArena is the global shape-keyed freelist.
type worldArena struct {
	mu    sync.Mutex
	free  map[machine.ShapeKey][]pooledWorld
	count int
}

// arenaCap bounds the total number of parked worlds. Each world keeps
// its finished processes' coroutines parked for reuse (each one a
// runtime coroutine with its own stack), so the bound also bounds that
// high-water mark; beyond it released worlds are shut down instead of
// pooled.
const arenaCap = 96

var arena = worldArena{free: map[machine.ShapeKey][]pooledWorld{}}

// get pops a parked world of the given shape, or returns false.
func (a *worldArena) get(shape machine.ShapeKey) (pooledWorld, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	q := a.free[shape]
	n := len(q)
	if n == 0 {
		return pooledWorld{}, false
	}
	pw := q[n-1]
	q[n-1] = pooledWorld{}
	a.free[shape] = q[:n-1]
	a.count--
	return pw, true
}

// put parks a drained world for reuse, or shuts it down when the arena
// is full (unparking its pooled coroutines so they exit).
func (a *worldArena) put(pw pooledWorld) {
	a.mu.Lock()
	if a.count >= arenaCap {
		a.mu.Unlock()
		pw.c.K.Shutdown()
		return
	}
	shape := pw.c.Shape()
	a.free[shape] = append(a.free[shape], pw)
	a.count++
	a.mu.Unlock()
}

// releaseWorlds ends a scope: pool-eligible worlds that are provably
// drained return to the arena, and every other world is shut down.
func releaseWorlds(keep *worldKeeper) {
	for i, pw := range keep.worlds {
		keep.worlds[i] = pooledWorld{}
		if !pw.c.K.Idle() || pw.c.K.LiveProcs() != 0 {
			// A panicked or abandoned run left the world mid-flight;
			// it is never recycled.
			pw.c.K.Shutdown()
			continue
		}
		arena.put(pw)
	}
	keep.worlds = keep.worlds[:0]
	for i, k := range keep.kernels {
		keep.kernels[i] = nil
		k.Shutdown()
	}
	keep.kernels = keep.kernels[:0]
}
