// Package fluid implements a weighted max-min fair bandwidth-sharing
// model over a set of resources (memory controllers, inter-NUMA links,
// PCIe lanes, network wires) and flows (compute kernels, memory streams,
// DMA transfers).
//
// This is the classic fluid model used by network and platform simulators
// (e.g. SimGrid): each flow f gets a single rate r_f; for every resource
// R with capacity C_R, the constraint sum over flows on R of w_{f,R}·r_f
// ≤ C_R must hold; the solver maximises the allocation in max-min order
// using progressive filling. A flow may additionally carry a private rate
// cap (e.g. a core's peak flop rate at its current frequency).
//
// The model is driven by a sim.Kernel: whenever the flow set or a
// capacity changes, rates are re-solved and the next flow completion is
// (re)scheduled as a simulation event. A batch scope (Hold/Release)
// folds several same-instant mutations into one re-solve.
//
// # Solver implementation
//
// The solver is incremental: resources and flows carry dense integer
// indices into preallocated scratch arrays, every resource keeps an
// adjacency list of the flows crossing it, and a mutation (flow
// add/remove, cap or capacity change) re-solves only the connected
// component of the resource/flow bipartite graph that the mutation
// touched — flows in unrelated components keep their rates. The
// restriction is exact, not approximate: progressive filling fixes
// flows in ascending threshold order and a fix only mutates the
// availability/weight bookkeeping of the resources that flow crosses,
// so the sequence of floating-point operations applied to a component
// is bit-for-bit the one a full re-solve would apply (see
// reference.go for the original whole-model solver, kept as the
// differential oracle, and DESIGN.md §4 for the equivalence argument).
package fluid

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// Resource is a shared capacity (units/second, typically bytes/s or
// flops/s). Capacity may change during the simulation (e.g. uncore
// frequency scaling a memory controller).
type Resource struct {
	name     string
	capacity float64
	model    *Model
	// load is the sum of w·r over current flows, maintained by solve.
	load float64
	// id is the dense index into the model's scratch arrays.
	id int
	// flows lists the active flows crossing this resource (the
	// adjacency the incremental solver walks to find the touched
	// connected component).
	flows []resUse
	// mark is the epoch stamp of the last component traversal that
	// visited this resource.
	mark uint64
}

// resUse is one edge of the resource→flow adjacency: the flow and the
// position of this resource in the flow's uses list (so removal can fix
// up the back-pointers of the entry swapped into the hole).
type resUse struct {
	f   *Flow
	idx int
}

// Name returns the resource name given at creation.
func (r *Resource) Name() string { return r.name }

// Capacity returns the current capacity in units/second.
func (r *Resource) Capacity() float64 { return r.capacity }

// Utilization returns load/capacity in [0,1] under the current
// allocation. It is the quantity the latency model reads: a memory
// access crossing a bus at utilization ρ sees queueing delay growing
// with ρ.
func (r *Resource) Utilization() float64 {
	if r.capacity <= 0 {
		if r.load > 0 {
			return 1
		}
		return 0
	}
	u := r.load / r.capacity
	if u > 1 {
		u = 1
	}
	return u
}

// Use couples a flow to a resource: the flow consumes weight·rate of the
// resource's capacity. Weight 1 is the common case; weights >1 model
// flows that stress a resource more per unit of progress (e.g. a COPY
// stream reads and writes), weights <1 model flows that get hardware
// arbitration preference (e.g. NIC DMA engines).
type Use struct {
	Resource *Resource
	Weight   float64
}

// Flow is an ongoing activity with a fixed amount of remaining work.
type Flow struct {
	model     *Model
	name      string
	remaining float64
	total     float64
	rate      float64
	cap       float64 // private rate bound; 0 means unbounded
	priority  float64 // rate multiplier in the fair allocation; ≥ default 1
	uses      []Use   // model-owned copy of the spec's uses (pooled)
	usePos    []int   // position of this flow in each use's resource list
	onDone    func()
	started   sim.Time
	finished  bool
	pooled    bool   // parked on the model's flow free list
	index     int    // position in model.flows, -1 when removed
	mark      uint64 // component-traversal epoch stamp
}

// FlowSpec describes a flow to start.
type FlowSpec struct {
	Name string
	// Work is the amount to transfer/compute, in resource units.
	Work float64
	// Cap bounds the flow's rate; 0 means unbounded by the flow itself.
	Cap float64
	// Priority scales the flow's share of a contended resource: under
	// max-min fairness the flow's rate is Priority times the fair unit.
	// Hardware DMA engines, which win memory-controller arbitration
	// against core streams, get Priority > 1. Zero means 1.
	Priority float64
	// Uses lists the resources crossed, with consumption weights. The
	// slice is copied into model-owned (pooled) storage at Start, so
	// callers may reuse a scratch buffer across starts.
	Uses []Use
	// OnDone, if non-nil, runs as a simulation event at completion.
	OnDone func()
}

// Name returns the flow name.
func (f *Flow) Name() string { return f.name }

// Rate returns the currently allocated rate (units/second).
func (f *Flow) Rate() float64 { return f.rate }

// Remaining returns the work left, after accounting progress up to the
// current instant.
func (f *Flow) Remaining() float64 {
	f.model.advance()
	return f.remaining
}

// Total returns the work the flow started with.
func (f *Flow) Total() float64 { return f.total }

// Finished reports whether the flow has completed (or was cancelled).
func (f *Flow) Finished() bool { return f.finished }

// Started returns the instant the flow was started.
func (f *Flow) Started() sim.Time { return f.started }

// Model owns resources and flows and keeps the piecewise-constant rate
// allocation in sync with the simulation clock.
type Model struct {
	k          *sim.Kernel
	resources  []*Resource
	flows      []*Flow
	lastUpdate sim.Time
	next       *sim.Timer // reusable next-completion event
	solves     uint64
	epoch      uint64 // component-traversal epoch

	// held is the nesting depth of open batch scopes (see Hold);
	// pending records a mutation whose re-solve a scope deferred.
	held    int
	pending bool

	// reference forces the original whole-model map-based solver on
	// every re-solve (benchmarks and differential tests).
	reference bool
	// differential re-runs the reference solver after every incremental
	// solve and panics if any rate or load disagrees by more than one
	// ulp — the oracle guarding golden verification runs.
	differential bool

	// dirty seeds accumulated since the last solve: the incremental
	// solver re-solves the union of the connected components reachable
	// from them.
	dirtyFlows []*Flow
	dirtyRes   []*Resource

	// Scratch buffers, reused across solves so the steady state
	// allocates nothing. avail/wsum are indexed by Resource.id.
	avail     []float64
	wsum      []float64
	fixed     []bool
	compFlows []*Flow
	compRes   []*Resource
	resQ      []*Resource
	done      []*Flow

	// Free lists for the model-owned per-flow bookkeeping arrays,
	// recycled when a flow is removed, and for Flow structs explicitly
	// returned with Recycle.
	freeUses  [][]Use
	freePos   [][]int
	freeFlows []*Flow
}

// NewModel returns an empty fluid model driven by kernel k.
func NewModel(k *sim.Kernel) *Model {
	m := &Model{k: k, differential: differentialDefault}
	m.next = k.NewTimer(func() {
		m.advance()
		m.resolve()
	})
	return m
}

// Solves reports how many times an allocation was recomputed (full or
// component-scoped; for performance diagnostics). A re-solve of a
// component without flows (a capacity change on an idle resource) only
// clears loads and is not counted, so building or resetting a world
// never moves the count.
func (m *Model) Solves() uint64 { return m.solves }

// Hold opens a batch scope. Until the matching Release, SetCapacity,
// SetCap, Start and Cancel still advance the clock and record what they
// touched, but defer the re-solve; the outermost Release runs it once,
// over the union of the touched components. Scopes nest. No simulated
// time may pass while a re-solve is deferred, and rates, loads and
// Finished read inside a scope are those of the last re-solve.
//
// The single re-solve replaces the chain of per-mutation re-solves bit
// for bit as long as none of those would have completed a flow (see
// DESIGN.md §4, "Batched mutations"): rates are a pure function of
// component state, and the flow list changes the same way. A mutation
// whose re-solve could complete one therefore re-solves at once: a
// zero-work Start, or the scope's first deferred mutation while some
// flow is within one clock tick of completion.
func (m *Model) Hold() { m.held++ }

// Release closes the innermost batch scope; closing the outermost one
// runs the deferred re-solve, if any.
func (m *Model) Release() {
	if m.held == 0 {
		panic("fluid: Release without Hold")
	}
	m.held--
	if m.held == 0 && m.pending {
		m.resolve()
	}
}

// settle ends a mutation: it re-solves now, or defers to the enclosing
// batch scope. completes reports a mutation that finishes a flow by
// itself (a zero-work Start).
func (m *Model) settle(completes bool) {
	if m.held > 0 && !completes && (m.pending || !m.anyDue()) {
		m.pending = true
		return
	}
	m.resolve()
}

// anyDue reports whether some flow completes before the next clock tick
// at the current rates. A stricter test than collectDone's, so that a
// rate raised inside the scope cannot make a flow complete that this
// check let through (short of a tenfold rise).
func (m *Model) anyDue() bool {
	const tick = 1e-9 // seconds: one sim.Nanosecond
	for _, f := range m.flows {
		if f.remaining <= 0 || (f.rate > 0 && f.remaining/f.rate < tick) {
			return true
		}
	}
	return false
}

// Version tags the solver's numerical behaviour. Bump it whenever a
// change can alter any computed rate or completion time by even an ulp:
// it is folded into content-addressed result-cache keys (see
// internal/runner), so stale cached measurements are recomputed instead
// of replayed against a different solver.
const Version = 1

// differentialDefault seeds the differential flag of newly created
// models; set it with SetDifferential before building any world.
var differentialDefault bool

// SetDifferential toggles the differential oracle for models created
// afterwards: every incremental solve is shadowed by the reference
// solver and any disagreement beyond one ulp panics. Roughly doubles
// solver cost; meant for golden-verification runs and tests. Not safe
// to call concurrently with model creation.
func SetDifferential(on bool) { differentialDefault = on }

// UseReference forces the original whole-model map-based solver for
// every subsequent re-solve of this model. Benchmarks and equivalence
// tests only.
func (m *Model) UseReference(on bool) { m.reference = on }

// NewResource registers a resource with the given capacity in
// units/second. Capacity must be positive.
func (m *Model) NewResource(name string, capacity float64) *Resource {
	if capacity <= 0 || math.IsNaN(capacity) {
		panic(fmt.Sprintf("fluid: resource %q capacity %v must be positive", name, capacity))
	}
	r := &Resource{name: name, capacity: capacity, model: m, id: len(m.resources)}
	m.resources = append(m.resources, r)
	m.avail = append(m.avail, 0)
	m.wsum = append(m.wsum, 0)
	return r
}

// SetCapacity changes a resource's capacity and re-solves the
// allocation of the component it belongs to. Used for frequency
// scaling.
func (m *Model) SetCapacity(r *Resource, capacity float64) {
	if capacity <= 0 || math.IsNaN(capacity) {
		panic(fmt.Sprintf("fluid: resource %q capacity %v must be positive", r.name, capacity))
	}
	if r.capacity == capacity {
		return
	}
	m.advance()
	r.capacity = capacity
	m.dirtyRes = append(m.dirtyRes, r)
	m.settle(false)
}

// StartFlow begins an activity of `work` units using the given
// resources, with default priority. cap bounds the flow's rate (0 =
// unbounded; a flow with no uses must have cap > 0 or it would finish
// instantly — such flows are rejected). onDone, if non-nil, runs as a
// simulation event when the flow completes.
func (m *Model) StartFlow(name string, work float64, cap float64, uses []Use, onDone func()) *Flow {
	return m.Start(FlowSpec{Name: name, Work: work, Cap: cap, Uses: uses, OnDone: onDone})
}

// Start begins the flow described by spec.
func (m *Model) Start(spec FlowSpec) *Flow {
	if spec.Work < 0 || math.IsNaN(spec.Work) {
		panic(fmt.Sprintf("fluid: flow %q work %v must be non-negative", spec.Name, spec.Work))
	}
	if len(spec.Uses) == 0 && spec.Cap <= 0 {
		panic(fmt.Sprintf("fluid: flow %q has no resources and no rate cap", spec.Name))
	}
	if spec.Priority < 0 {
		panic(fmt.Sprintf("fluid: flow %q has negative priority", spec.Name))
	}
	for _, u := range spec.Uses {
		if u.Weight <= 0 {
			panic(fmt.Sprintf("fluid: flow %q has non-positive weight on %q", spec.Name, u.Resource.name))
		}
		if u.Resource.model != m {
			panic(fmt.Sprintf("fluid: flow %q uses resource %q from another model", spec.Name, u.Resource.name))
		}
	}
	pri := spec.Priority
	if pri == 0 {
		pri = 1
	}
	m.advance()
	var f *Flow
	if n := len(m.freeFlows); n > 0 {
		f = m.freeFlows[n-1]
		m.freeFlows[n-1] = nil
		m.freeFlows = m.freeFlows[:n-1]
	} else {
		f = &Flow{model: m}
	}
	f.name = spec.Name
	f.remaining = spec.Work
	f.total = spec.Work
	f.rate = 0
	f.cap = spec.Cap
	f.priority = pri
	f.onDone = spec.OnDone
	f.started = m.k.Now()
	f.finished = false
	f.pooled = false
	f.index = len(m.flows)
	f.mark = 0
	f.uses, f.usePos = m.newFlowArrays(spec.Uses)
	for i, u := range f.uses {
		r := u.Resource
		f.usePos[i] = len(r.flows)
		r.flows = append(r.flows, resUse{f, i})
	}
	m.flows = append(m.flows, f)
	m.dirtyFlows = append(m.dirtyFlows, f)
	m.settle(spec.Work == 0)
	return f
}

// newFlowArrays takes a pooled uses/usePos pair (or makes fresh ones)
// and copies spec uses into it.
func (m *Model) newFlowArrays(uses []Use) ([]Use, []int) {
	var u []Use
	var p []int
	if n := len(m.freeUses); n > 0 {
		u = m.freeUses[n-1]
		m.freeUses = m.freeUses[:n-1]
		p = m.freePos[len(m.freePos)-1]
		m.freePos = m.freePos[:len(m.freePos)-1]
	}
	u = append(u[:0], uses...)
	for len(p) < len(uses) {
		p = append(p, 0)
	}
	return u, p[:len(uses)]
}

// SetCap changes a flow's private rate bound and re-solves its
// component. A running compute kernel's cap changes when its core's
// frequency changes.
func (m *Model) SetCap(f *Flow, cap float64) {
	if f.finished {
		return
	}
	if len(f.uses) == 0 && cap <= 0 {
		panic(fmt.Sprintf("fluid: flow %q would have no resources and no cap", f.name))
	}
	if f.cap == cap {
		return
	}
	m.advance()
	f.cap = cap
	m.dirtyFlows = append(m.dirtyFlows, f)
	m.settle(false)
}

// Recycle returns a finished (completed or cancelled) flow's storage to
// the model, to be handed out again by a later Start. Only the flow's
// owner may recycle it, and only once nothing else — completion hooks,
// frequency-rescaling bookkeeping, a crash-path waiter — can still
// reach it: the next Start reincarnates the struct as a different flow.
// Recycling an unfinished or already-recycled flow is a no-op.
func (m *Model) Recycle(f *Flow) {
	if f == nil || f.model != m || !f.finished || f.index >= 0 || f.pooled {
		return
	}
	f.pooled = true
	f.onDone = nil
	f.name = ""
	m.freeFlows = append(m.freeFlows, f)
}

// Reset rewinds an idle model (no active flows) to its initial clock
// state, keeping its resources — with their dense ids and creation
// order, which the solver's arithmetic order depends on — and all
// recycled storage. Resource capacities are NOT restored: the caller
// re-applies them from its spec (frequency scaling may have moved
// them). Must be called before the (reset) kernel schedules anything,
// and never inside a batch scope.
func (m *Model) Reset() {
	if len(m.flows) != 0 {
		panic("fluid: Reset with active flows")
	}
	if m.held != 0 {
		panic("fluid: Reset inside a batch scope")
	}
	m.next.Stop()
	m.lastUpdate = 0
	m.dirtyFlows = m.dirtyFlows[:0]
	m.dirtyRes = m.dirtyRes[:0]
	m.done = m.done[:0]
	m.solves = 0
}

// Cancel removes a flow without running its completion callback.
func (m *Model) Cancel(f *Flow) {
	if f.finished {
		return
	}
	m.advance()
	for _, u := range f.uses {
		m.dirtyRes = append(m.dirtyRes, u.Resource)
	}
	m.remove(f)
	f.finished = true
	m.settle(false)
}

// remove unlinks f from the flow list and from its resources'
// adjacency lists, recycling its bookkeeping arrays.
//
// The global list uses swap-with-last, exactly like the original
// solver: solve order (and therefore the last-ulp floating-point
// behaviour the golden files record) depends on the relative order of
// the surviving flows. A swap moves the last flow earlier, which can
// permute the order *within* that flow's component — so the moved flow
// is marked dirty and its component re-solved, keeping every cached
// component bit-identical to what a full re-solve would compute.
func (m *Model) remove(f *Flow) {
	for i, u := range f.uses {
		r := u.Resource
		pos := f.usePos[i]
		last := len(r.flows) - 1
		moved := r.flows[last]
		r.flows[pos] = moved
		moved.f.usePos[moved.idx] = pos
		r.flows[last] = resUse{}
		r.flows = r.flows[:last]
	}
	m.freeUses = append(m.freeUses, f.uses[:0])
	m.freePos = append(m.freePos, f.usePos[:0])
	f.uses, f.usePos = nil, nil

	lastIdx := len(m.flows) - 1
	g := m.flows[lastIdx]
	m.flows[f.index] = g
	g.index = f.index
	m.flows[lastIdx] = nil
	m.flows = m.flows[:lastIdx]
	f.index = -1
	f.rate = 0
	if g != f {
		m.dirtyFlows = append(m.dirtyFlows, g)
	}
}

// advance accrues progress from lastUpdate to now at the current rates.
func (m *Model) advance() {
	now := m.k.Now()
	if now == m.lastUpdate {
		return
	}
	if m.pending {
		panic("fluid: simulated time advanced inside a batch scope")
	}
	dt := now.Sub(m.lastUpdate).Seconds()
	m.lastUpdate = now
	for _, f := range m.flows {
		f.remaining -= f.rate * dt
		if f.remaining < 0 {
			f.remaining = 0
		}
	}
}

// epsilon below which remaining work counts as done, relative to the
// flow's rate: anything that would complete within a fraction of a
// nanosecond is complete.
const completeEps = 1e-10 // seconds

// resolve recomputes the rates of every dirty component, fires
// completions due now, and schedules the next completion event.
func (m *Model) resolve() {
	m.pending = false
	// Completions may themselves add/remove flows from callbacks that run
	// as separate events, so here we only: solve, complete-now, schedule.
	for {
		m.solveDirty()
		done, next := m.collectDone()
		if len(done) == 0 {
			if m.differential && !m.reference {
				// Check at quiescence, not after each scoped solve:
				// mid-loop, a done-but-uncollected flow in an untouched
				// component transiently keeps its old rate (the reference
				// zeroes it a loop iteration early), and both states
				// converge once the flow is removed.
				m.checkOracle()
			}
			m.schedule(next)
			return
		}
		for _, f := range done {
			// The freed bandwidth redistributes inside f's component(s).
			for _, u := range f.uses {
				m.dirtyRes = append(m.dirtyRes, u.Resource)
			}
			m.remove(f)
			f.finished = true
			if f.onDone != nil {
				// Run as an event so callbacks observe a consistent model
				// and cannot recurse into resolve mid-loop.
				m.k.At(m.k.Now(), f.onDone)
			}
		}
	}
}

// collectDone returns the flows whose remaining work is (numerically)
// zero, in a scratch slice reused across calls, and the earliest
// completion time of the others in seconds (+Inf if none runs): when
// nothing is done, that is the instant schedule arms, found in the
// same pass.
func (m *Model) collectDone() ([]*Flow, float64) {
	m.done = m.done[:0]
	best := math.Inf(1)
	for _, f := range m.flows {
		if f.remaining <= 0 {
			m.done = append(m.done, f)
			continue
		}
		if f.rate > 0 {
			t := f.remaining / f.rate
			if t < completeEps {
				m.done = append(m.done, f)
			} else if t < best {
				best = t
			}
		}
	}
	return m.done, best
}

// schedule arms the next-completion event best seconds from now.
func (m *Model) schedule(best float64) {
	m.next.Stop()
	// Effectively-never completions (e.g. quasi-infinite background
	// flows) are not scheduled at all; they are cancelled explicitly.
	const horizon = 1e8 // seconds of simulated time, ≈3 years
	if math.IsInf(best, 1) || best > horizon {
		return
	}
	m.next.ArmAfter(sim.DurationOfSeconds(best))
}

// solveDirty re-solves the union of the connected components reachable
// from the dirty seeds accumulated since the last solve. With no seeds
// it is a no-op: a completion event, for example, changes no
// constraint until the finished flow is removed.
func (m *Model) solveDirty() {
	if m.reference {
		m.dirtyFlows = m.dirtyFlows[:0]
		m.dirtyRes = m.dirtyRes[:0]
		m.solveReferenceInPlace()
		return
	}
	if len(m.dirtyFlows) == 0 && len(m.dirtyRes) == 0 {
		return
	}
	m.collectComponent()
	m.solveScoped()
}

// collectComponent walks the resource/flow bipartite graph from the
// dirty seeds and fills compFlows/compRes with the touched component(s)
// in canonical order: flows in global flow-list order, resources in
// creation order — the orders the whole-model solver iterates in, so
// the scoped solve below replays its exact arithmetic.
//
// Flows with no remaining work are members (their rate must drop to
// zero like a full solve would) but do not propagate connectivity:
// they contribute nothing to any resource constraint.
func (m *Model) collectComponent() {
	m.epoch++
	epoch := m.epoch
	q := m.resQ[:0]
	nFlows, nRes := 0, 0

	for _, r := range m.dirtyRes {
		if r.mark != epoch {
			r.mark = epoch
			nRes++
			q = append(q, r)
		}
	}
	for _, f := range m.dirtyFlows {
		if f.index < 0 || f.mark == epoch {
			continue // removed after being marked dirty, or seen
		}
		f.mark = epoch
		nFlows++
		if f.remaining > 0 {
			for _, u := range f.uses {
				if r := u.Resource; r.mark != epoch {
					r.mark = epoch
					nRes++
					q = append(q, r)
				}
			}
		}
	}
	m.dirtyFlows = m.dirtyFlows[:0]
	m.dirtyRes = m.dirtyRes[:0]

	for len(q) > 0 {
		r := q[len(q)-1]
		q = q[:len(q)-1]
		for _, ru := range r.flows {
			f := ru.f
			if f.mark == epoch {
				continue
			}
			f.mark = epoch
			nFlows++
			if f.remaining > 0 {
				for _, u := range f.uses {
					if rr := u.Resource; rr.mark != epoch {
						rr.mark = epoch
						nRes++
						q = append(q, rr)
					}
				}
			}
		}
	}
	m.resQ = q[:0]

	// Canonical ordering comes from scanning the global slices for the
	// marks rather than sorting what the traversal found: the scans are
	// linear (with an early exit once everything marked has been seen)
	// and advance() already walks the full flow list on every mutation,
	// so they add no new asymptotic cost — and the whole-component case,
	// which a sort makes the most expensive, becomes the cheapest.
	m.compFlows = m.compFlows[:0]
	for _, f := range m.flows {
		if f.mark == epoch {
			m.compFlows = append(m.compFlows, f)
			if len(m.compFlows) == nFlows {
				break
			}
		}
	}
	m.compRes = m.compRes[:0]
	for _, r := range m.resources {
		if r.mark == epoch {
			m.compRes = append(m.compRes, r)
			if len(m.compRes) == nRes {
				break
			}
		}
	}
}

// solveScoped runs weighted progressive filling over the collected
// component. After it, every component flow has its max-min fair rate
// and every component resource has its load recomputed; the rest of
// the model is untouched.
//
// Priorities are handled by normalisation: for each flow define the
// normalised rate ρ_f = rate_f / priority_f. Every resource constraint
// becomes Σ (w·priority)·ρ ≤ C and every cap becomes ρ ≤ cap/priority,
// so plain max-min progressive filling over ρ yields the weighted,
// prioritised allocation.
func (m *Model) solveScoped() {
	for _, r := range m.compRes {
		r.load = 0
		m.avail[r.id] = r.capacity
		m.wsum[r.id] = 0
	}
	nf := len(m.compFlows)
	if nf == 0 {
		return
	}
	m.solves++
	if cap(m.fixed) < nf {
		m.fixed = make([]bool, nf)
	}
	fixed := m.fixed[:nf]
	remaining := 0
	for i, f := range m.compFlows {
		f.rate = 0
		if f.remaining <= 0 {
			// Already-done flows (awaiting collection) consume nothing.
			fixed[i] = true
			continue
		}
		fixed[i] = false
		for _, u := range f.uses {
			m.wsum[u.Resource.id] += u.Weight * f.priority
		}
		remaining++
	}
	for remaining > 0 {
		// Candidate fair normalised rate: the tightest bottleneck.
		bottleneck := (*Resource)(nil)
		fair := math.Inf(1)
		for _, r := range m.compRes {
			w := m.wsum[r.id]
			if w <= 0 {
				continue
			}
			c := m.avail[r.id] / w
			if c < fair {
				fair = c
				bottleneck = r
			}
		}
		// Candidate: the smallest normalised cap among unfixed flows.
		capMin := math.Inf(1)
		for i, f := range m.compFlows {
			if !fixed[i] && f.cap > 0 {
				if c := f.cap / f.priority; c < capMin {
					capMin = c
				}
			}
		}
		switch {
		case capMin < fair:
			// Fix every unfixed flow whose normalised cap is the minimum.
			for i, f := range m.compFlows {
				if fixed[i] || f.cap <= 0 || f.cap/f.priority > capMin {
					continue
				}
				m.fix(f, capMin)
				fixed[i] = true
				remaining--
			}
		case bottleneck != nil:
			// Fix every unfixed flow using the bottleneck at the fair rate.
			for i, f := range m.compFlows {
				if fixed[i] {
					continue
				}
				uses := false
				for _, u := range f.uses {
					if u.Resource == bottleneck {
						uses = true
						break
					}
				}
				if !uses {
					continue
				}
				m.fix(f, fair)
				fixed[i] = true
				remaining--
			}
		default:
			// No bottleneck and no cap below it: flows whose every
			// resource already drained to zero availability. Their fair
			// share is zero. (Flows with neither resources nor caps were
			// rejected at Start.)
			for i, f := range m.compFlows {
				if !fixed[i] {
					f.rate = 0
					fixed[i] = true
					remaining--
				}
			}
		}
	}
	for _, f := range m.compFlows {
		for _, u := range f.uses {
			u.Resource.load += u.Weight * f.rate
		}
	}
}

// fix assigns the normalised rate to f (scaled by its priority) and
// withdraws its consumption from the progressive-filling bookkeeping.
func (m *Model) fix(f *Flow, normRate float64) {
	f.rate = normRate * f.priority
	if f.cap > 0 && f.rate > f.cap {
		f.rate = f.cap
	}
	for _, u := range f.uses {
		id := u.Resource.id
		m.avail[id] -= u.Weight * f.rate
		if m.avail[id] < 0 {
			m.avail[id] = 0
		}
		m.wsum[id] -= u.Weight * f.priority
		if m.wsum[id] < 1e-12 {
			m.wsum[id] = 0
		}
	}
}

// solveAll marks every flow and resource dirty and re-solves from
// scratch. Benchmarks and equivalence tests; the simulation path never
// needs it.
func (m *Model) solveAll() {
	m.dirtyFlows = append(m.dirtyFlows[:0], m.flows...)
	m.dirtyRes = append(m.dirtyRes[:0], m.resources...)
	m.collectComponent()
	m.solveScoped()
}

// FlowCount returns the number of active flows (diagnostics).
func (m *Model) FlowCount() int { return len(m.flows) }

// Kernel returns the driving simulation kernel.
func (m *Model) Kernel() *sim.Kernel { return m.k }
