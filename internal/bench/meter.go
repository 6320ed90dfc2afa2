package bench

import (
	"sync"

	"repro/internal/counters"
	"repro/internal/machine"
	"repro/internal/sim"
)

// Meter accumulates execution accounting for one experiment: every
// simulated world the drivers build registers its cluster, so that after
// the experiment returns the harness can report how many worlds were
// simulated and how much simulated time they covered. A Meter is safe
// for concurrent use, but the usual pattern is one Meter per experiment
// (see Env.Isolated and the runner package).
type Meter struct {
	mu     sync.Mutex
	worlds []*machine.Cluster
	sets   []*counters.Set
	// Absorbed sweep-point accounting (see Absorb): worlds simulated
	// under a point's own meter, including points replayed from cache.
	absorbedSim    float64
	absorbedWorlds int
	absorbedFaults FaultTotals
}

// Absorb folds an already-accounted execution into the meter: sweep
// points run against their own isolated meter (possibly on another
// goroutine, possibly replayed from a cache without simulating at all),
// and the owning experiment absorbs their totals in index order so the
// campaign accounting is identical whichever path produced them.
func (m *Meter) Absorb(simSeconds float64, worlds int, faults FaultTotals) {
	m.mu.Lock()
	m.absorbedSim += simSeconds
	m.absorbedWorlds += worlds
	m.absorbedFaults.merge(faults)
	m.mu.Unlock()
}

// track registers a world; a nil meter ignores it.
func (m *Meter) track(c *machine.Cluster) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.worlds = append(m.worlds, c)
	m.mu.Unlock()
}

// Worlds returns how many simulated worlds have been built so far,
// including worlds absorbed from sweep points.
func (m *Meter) Worlds() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.worlds) + m.absorbedWorlds
}

// TrackCounters registers one node's counter set so the harness can
// aggregate fault/recovery statistics over every world an experiment
// built.
func (m *Meter) TrackCounters(s *counters.Set) {
	m.mu.Lock()
	m.sets = append(m.sets, s)
	m.mu.Unlock()
}

// FaultTotals aggregates the fault and recovery counters across every
// tracked node. All fields are zero for healthy experiments.
type FaultTotals struct {
	SendRetries   float64
	SendTimeouts  float64
	RecvTimeouts  float64
	MsgsLost      float64
	MsgsCorrupted float64
	// Crash-recovery totals (zero without node-crash injection).
	PeerDeaths      float64
	TasksReexecuted float64
	RollbackIters   float64
	Checkpoints     float64
	RecoverySecs    float64
}

// add accrues one node's counter set into the totals.
func (t *FaultTotals) add(s *counters.Set) {
	t.SendRetries += s.SendRetries
	t.SendTimeouts += s.SendTimeouts
	t.RecvTimeouts += s.RecvTimeouts
	t.MsgsLost += s.MsgsLost
	t.MsgsCorrupted += s.MsgsCorrupted
	t.PeerDeaths += s.PeerDeaths
	t.TasksReexecuted += s.TasksReexecuted
	t.RollbackIters += s.RollbackIters
	t.Checkpoints += s.Checkpoints
	t.RecoverySecs += s.RecoverySecs
}

// merge accrues another totals value into t.
func (t *FaultTotals) merge(o FaultTotals) {
	t.SendRetries += o.SendRetries
	t.SendTimeouts += o.SendTimeouts
	t.RecvTimeouts += o.RecvTimeouts
	t.MsgsLost += o.MsgsLost
	t.MsgsCorrupted += o.MsgsCorrupted
	t.PeerDeaths += o.PeerDeaths
	t.TasksReexecuted += o.TasksReexecuted
	t.RollbackIters += o.RollbackIters
	t.Checkpoints += o.Checkpoints
	t.RecoverySecs += o.RecoverySecs
}

// Any reports whether any fault activity was recorded.
func (t FaultTotals) Any() bool {
	return t.SendRetries+t.SendTimeouts+t.RecvTimeouts+t.MsgsLost+t.MsgsCorrupted+
		t.PeerDeaths+t.TasksReexecuted+t.RollbackIters+t.Checkpoints+t.RecoverySecs > 0
}

// FaultTotals sums the fault counters of every tracked node. Call it
// after the experiment returns.
func (m *Meter) FaultTotals() FaultTotals {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := m.absorbedFaults
	for _, s := range m.sets {
		t.add(s)
	}
	return t
}

// Steps sums the kernel events run (sim.Kernel.Steps) by the worlds
// this meter tracked directly. Like Switches and Solves it is an exact
// work counter; absorbed sweep points are not included, since their
// counts are not part of the cached record (see PointRecord.Switches).
func (m *Meter) Steps() uint64 {
	return m.sum(func(c *machine.Cluster) uint64 { return c.K.Steps() })
}

// Switches sums the process resumes (sim.Kernel.Switches) of the
// worlds this meter tracked directly.
func (m *Meter) Switches() uint64 {
	return m.sum(func(c *machine.Cluster) uint64 { return c.K.Switches() })
}

// Solves sums the fluid re-solves (fluid.Model.Solves) of the worlds
// this meter tracked directly.
func (m *Meter) Solves() uint64 {
	return m.sum(func(c *machine.Cluster) uint64 { return c.Fluid.Solves() })
}

// sum adds up one counter over the tracked worlds.
func (m *Meter) sum(count func(*machine.Cluster) uint64) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var n uint64
	for _, c := range m.worlds {
		n += count(c)
	}
	return n
}

// SimSeconds returns the total simulated time covered by the tracked
// worlds. Call it after the experiment returns: each driver runs its
// kernels to completion, so Now() is each world's end time.
func (m *Meter) SimSeconds() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	total := m.absorbedSim
	for _, c := range m.worlds {
		total += sim.Duration(c.K.Now()).Seconds()
	}
	return total
}
