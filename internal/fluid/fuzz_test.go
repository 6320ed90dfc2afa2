package fluid

import (
	"math"
	"testing"

	"repro/internal/sim"
)

// runProgram drives the solver with an arbitrary byte-encoded sequence
// of operations (add resources, start/cancel flows, change
// capacities/caps, advance time, open/close a batch scope), checking
// the core invariants after every step outside a scope: feasibility (no resource over capacity), cap respect,
// and non-negative rates/remaining work. With differential set, every
// re-solve is additionally shadowed by the reference solver (the
// oracle panics on any disagreement beyond one ulp).
func runProgram(t *testing.T, program []byte, differential bool) {
	k := sim.NewKernel(1)
	m := NewModel(k)
	m.differential = differential
	var resources []*Resource
	var flows []*Flow
	rng := k.Rand()

	check := func() {
		for _, r := range resources {
			if r.load > r.capacity*(1+1e-6) {
				t.Fatalf("resource %q over capacity: %v > %v", r.name, r.load, r.capacity)
			}
		}
		for _, fl := range flows {
			if fl.finished {
				continue
			}
			if fl.rate < 0 || math.IsNaN(fl.rate) {
				t.Fatalf("flow %q rate %v", fl.name, fl.rate)
			}
			if fl.cap > 0 && fl.rate > fl.cap*(1+1e-6) {
				t.Fatalf("flow %q rate %v above cap %v", fl.name, fl.rate, fl.cap)
			}
			if fl.remaining < 0 {
				t.Fatalf("flow %q negative remaining %v", fl.name, fl.remaining)
			}
		}
	}

	held := false
	release := func() {
		if held {
			m.Release()
			held = false
		}
	}
	for i := 0; i+1 < len(program); i += 2 {
		op, arg := program[i]%8, float64(program[i+1])
		switch op {
		case 0, 1: // add resource
			resources = append(resources, m.NewResource("r", 1+arg))
		case 2: // start flow on random subset
			if len(resources) == 0 {
				continue
			}
			var uses []Use
			for _, r := range resources {
				if rng.Intn(2) == 0 {
					uses = append(uses, Use{r, 0.5 + rng.Float64()})
				}
			}
			spec := FlowSpec{Name: "f", Work: 1 + arg*1e3, Priority: 0.5 + rng.Float64()*3}
			if len(uses) == 0 || rng.Intn(3) == 0 {
				spec.Cap = 1 + arg
			}
			spec.Uses = uses
			flows = append(flows, m.Start(spec))
		case 3: // cancel a flow
			if len(flows) > 0 {
				m.Cancel(flows[int(arg)%len(flows)])
			}
		case 4: // advance time (closing the scope: no time passes in one)
			release()
			k.RunUntil(k.Now().Add(sim.Duration(1+arg) * sim.Millisecond))
		case 5: // change a capacity
			if len(resources) > 0 {
				m.SetCapacity(resources[int(arg)%len(resources)], 1+arg*2)
			}
		case 6: // change a cap
			if len(flows) > 0 {
				fl := flows[int(arg)%len(flows)]
				if !fl.finished && len(fl.uses) > 0 {
					m.SetCap(fl, 1+arg)
				}
			}
		case 7: // open a batch scope, or close the open one
			if held {
				release()
			} else {
				m.Hold()
				held = true
			}
		}
		if !held {
			check() // inside a scope, rates are the last re-solve's
		}
	}
	release()
	// Drain: every remaining event must fire without panicking.
	k.RunUntil(k.Now().Add(sim.Duration(10 * sim.Second)))
	check()
}

// FuzzSolverInvariants checks the allocation invariants under
// arbitrary operation sequences.
func FuzzSolverInvariants(f *testing.F) {
	f.Add([]byte{1, 10, 2, 30, 2, 60, 3, 0, 4, 5})
	f.Add([]byte{1, 200, 2, 10, 2, 10, 2, 10, 5, 0, 4, 50, 3, 1})
	f.Add([]byte{1, 1, 1, 255, 2, 0, 2, 128, 6, 77, 3, 0, 3, 1, 4, 255})
	f.Fuzz(func(t *testing.T, program []byte) {
		runProgram(t, program, false)
	})
}

// FuzzFluid is the differential fuzzer: the same operation programs,
// but with the reference-solver oracle armed on every re-solve, so any
// divergence between the incremental and the original solver is a
// crash. Seeds are promoted from the cases that mattered during
// development and from the property suite's interesting shapes.
func FuzzFluid(f *testing.F) {
	// Two components, cancel the first flow: the swap-remove moves the
	// last flow into slot 0, permuting fix order inside its component.
	f.Add([]byte{1, 50, 1, 50, 2, 10, 2, 10, 2, 10, 3, 0, 4, 20, 5, 1, 6, 0})
	// Short flow completes while a different component is mutated at
	// the same instant (the done-but-uncollected transient that once
	// tripped a mid-resolve oracle check).
	f.Add([]byte{1, 10, 1, 10, 2, 0, 2, 200, 2, 200, 4, 255, 6, 1, 4, 255})
	// Capacity churn on a shared resource: repeated SetCapacity
	// re-solves of a loaded component, interleaved with completions.
	f.Add([]byte{1, 100, 2, 5, 2, 5, 2, 5, 5, 0, 4, 100, 5, 0, 4, 100, 5, 0})
	// Cap-tie round: several flows whose normalised caps coincide are
	// fixed in one round; then one is cancelled.
	f.Add([]byte{1, 255, 2, 7, 2, 7, 2, 7, 2, 7, 6, 0, 6, 1, 3, 2, 4, 50})
	// Deep churn: starts and cancels alternating, stressing the
	// free-list and adjacency swap-removal bookkeeping.
	f.Add([]byte{1, 30, 1, 60, 2, 3, 3, 0, 2, 3, 3, 0, 2, 3, 3, 0, 2, 3, 4, 90})
	// Batch scope: capacity, cap, start and cancel deferred to one
	// re-solve, then a completion, then a second scope left open
	// across an advance of the clock (which closes it).
	f.Add([]byte{1, 40, 1, 80, 2, 9, 2, 9, 7, 0, 5, 0, 6, 1, 2, 20, 3, 0, 7, 0, 4, 60, 7, 0, 5, 1, 2, 4, 4, 30})
	f.Fuzz(func(t *testing.T, program []byte) {
		runProgram(t, program, true)
	})
}
