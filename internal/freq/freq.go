// Package freq models the frequency behaviour of a node: per-core DVFS
// with governors and turbo-boost, AVX frequency licences, and the
// uncore (LLC + memory controller) frequency domain.
//
// The model is intentionally mechanistic, following §3 of the paper:
//   - an idle core drops to its minimum frequency;
//   - an active core runs at the turbo limit for the number of active
//     cores in its vector-licence class (or at base frequency with
//     turbo disabled, or at a pinned frequency with the userspace
//     governor);
//   - the uncore frequency either follows demand (more active cores →
//     higher uncore) or is pinned, as the paper does through the BIOS.
//
// Every transition is visible: listeners are notified of the cores and
// domains that moved (the machine layer rescales those cores' compute-
// flow caps and the memory-controller capacities) and an optional trace
// records per-core frequency steps for Figure 2/3-style plots.
package freq

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/topology"
)

// Governor selects the core frequency policy, mirroring Linux cpufreq.
type Governor int

const (
	// Performance runs active cores as fast as allowed (turbo limit when
	// turbo is enabled, base frequency otherwise); idle cores drop to
	// the minimum frequency (C-states).
	Performance Governor = iota
	// Powersave pins every core to the minimum frequency.
	Powersave
	// Userspace pins every core to the frequency set with SetUserspace,
	// as the paper does with the cpupower tool (§3).
	Userspace
)

func (g Governor) String() string {
	switch g {
	case Performance:
		return "performance"
	case Powersave:
		return "powersave"
	case Userspace:
		return "userspace"
	}
	return fmt.Sprintf("Governor(%d)", int(g))
}

// Sample is one point of a frequency trace.
type Sample struct {
	At   sim.Time
	Core int // -1 for the uncore domain
	GHz  float64
}

// Model tracks the frequency state of one node.
type Model struct {
	k    *sim.Kernel
	spec *topology.NodeSpec

	governor      Governor
	userspaceGHz  float64
	turboEnabled  bool
	uncoreFixed   bool
	uncoreFixedV  float64
	active        []bool
	class         []topology.VecClass
	coreGHz       []float64
	uncoreGHz     float64
	activeByClass [3]int

	listeners []Listener
	// moved collects the cores whose frequency the running update
	// changed, in ascending order (scratch, reused across updates).
	moved   []int
	trace   []Sample
	tracing bool
	energy  *energyState
}

// NewModel returns the frequency model for spec, with the performance
// governor, turbo enabled, and dynamic uncore — the defaults the paper
// measures under unless stated otherwise.
func NewModel(k *sim.Kernel, spec *topology.NodeSpec) *Model {
	m := &Model{
		k:            k,
		spec:         spec,
		governor:     Performance,
		turboEnabled: true,
		active:       make([]bool, spec.Cores()),
		class:        make([]topology.VecClass, spec.Cores()),
		coreGHz:      make([]float64, spec.Cores()),
		moved:        make([]int, 0, spec.Cores()),
	}
	m.recompute()
	return m
}

// Spec returns the node spec the model was built from.
func (m *Model) Spec() *topology.NodeSpec { return m.spec }

// Reset rewinds the model to the state NewModel(k, spec) returns,
// rebinding it to spec — which must have the same core count —
// while keeping its registered listeners. The final recompute notifies
// them, so capacity bookkeeping downstream is rebuilt against spec.
func (m *Model) Reset(spec *topology.NodeSpec) {
	if spec.Cores() != len(m.active) {
		panic(fmt.Sprintf("freq: Reset with %d cores, model has %d", spec.Cores(), len(m.active)))
	}
	m.spec = spec
	m.governor = Performance
	m.userspaceGHz = 0
	m.turboEnabled = true
	m.uncoreFixed = false
	m.uncoreFixedV = 0
	for i := range m.active {
		m.active[i] = false
		m.class[i] = 0
		m.coreGHz[i] = 0
	}
	m.uncoreGHz = 0
	m.activeByClass = [3]int{}
	m.trace = m.trace[:0]
	m.tracing = false
	m.energy = nil
	m.recompute()
}

// Listener is notified after frequencies change: cores lists the cores
// whose frequency moved, in ascending order, and uncore reports whether
// the uncore domain moved. cores is only valid during the call.
type Listener func(cores []int, uncore bool)

// OnChange registers fn to run after any frequency changes. Listeners
// must not mutate the model.
func (m *Model) OnChange(fn Listener) { m.listeners = append(m.listeners, fn) }

// SetGovernor selects the frequency policy for all cores.
func (m *Model) SetGovernor(g Governor) {
	m.governor = g
	m.recompute()
}

// Governor returns the current policy.
func (m *Model) Governor() Governor { return m.governor }

// SetUserspace pins all cores to f GHz under the userspace governor.
// f is clamped to [CoreMin, CoreBase], the range cpupower accepts.
func (m *Model) SetUserspace(f float64) {
	if f < m.spec.Freq.CoreMin {
		f = m.spec.Freq.CoreMin
	}
	if f > m.spec.Freq.CoreBase {
		f = m.spec.Freq.CoreBase
	}
	m.governor = Userspace
	m.userspaceGHz = f
	m.recompute()
}

// SetTurbo enables or disables turbo-boost.
func (m *Model) SetTurbo(on bool) {
	m.turboEnabled = on
	m.recompute()
}

// SetUncoreFixed pins the uncore domain to f GHz (BIOS/Likwid setting),
// clamped to the permitted range.
func (m *Model) SetUncoreFixed(f float64) {
	if f < m.spec.Freq.UncoreMin {
		f = m.spec.Freq.UncoreMin
	}
	if f > m.spec.Freq.UncoreMax {
		f = m.spec.Freq.UncoreMax
	}
	m.uncoreFixed = true
	m.uncoreFixedV = f
	m.recompute()
}

// SetUncoreDynamic restores demand-driven uncore frequency scaling.
func (m *Model) SetUncoreDynamic() {
	m.uncoreFixed = false
	m.recompute()
}

// SetActive marks a core as running code of the given vector class.
func (m *Model) SetActive(core int, class topology.VecClass) {
	m.checkCore(core)
	if m.active[core] && m.class[core] == class {
		return
	}
	m.accrueEnergy() // charge the elapsed interval at the old state
	var moved classSet
	if m.active[core] {
		moved[m.class[core]] = m.count(m.class[core], -1)
	}
	m.active[core] = true
	m.class[core] = class
	if m.count(class, +1) {
		moved[class] = true
	}
	m.retune(core, moved)
}

// SetIdle marks a core as idle.
func (m *Model) SetIdle(core int) {
	m.checkCore(core)
	if !m.active[core] {
		return
	}
	m.accrueEnergy() // charge the elapsed interval at the old state
	var moved classSet
	m.active[core] = false
	moved[m.class[core]] = m.count(m.class[core], -1)
	m.retune(core, moved)
}

// classSet holds one flag per vector class (indexed like activeByClass).
type classSet [len(Model{}.activeByClass)]bool

// count moves a class's active-core census by delta and reports
// whether that moved the class's turbo limit.
func (m *Model) count(class topology.VecClass, delta int) bool {
	t := m.spec.Freq.Turbo[class]
	before := t.Limit(m.activeByClass[class])
	m.activeByClass[class] += delta
	return t.Limit(m.activeByClass[class]) != before
}

// retune is the incremental recompute after core toggled: a census
// change can only move that core's own frequency, the frequencies of
// the active cores in a class whose turbo limit moved, and the uncore.
func (m *Model) retune(core int, moved classSet) {
	m.moved = m.moved[:0]
	if moved == (classSet{}) {
		m.retarget(core)
	} else {
		for c := range m.coreGHz {
			if c == core || (m.active[c] && moved[m.class[c]]) {
				m.retarget(c)
			}
		}
	}
	m.publish()
}

func (m *Model) checkCore(core int) {
	if core < 0 || core >= len(m.active) {
		panic(fmt.Sprintf("freq: core %d out of range [0,%d)", core, len(m.active)))
	}
}

// CoreGHz returns the current frequency of a core.
func (m *Model) CoreGHz(core int) float64 {
	m.checkCore(core)
	return m.coreGHz[core]
}

// UncoreGHz returns the current uncore frequency.
func (m *Model) UncoreGHz() float64 { return m.uncoreGHz }

// UncoreIsFixed reports whether the uncore domain is pinned (BIOS/
// Likwid setting) rather than demand-driven.
func (m *Model) UncoreIsFixed() bool { return m.uncoreFixed }

// ActiveCores returns the number of currently active cores.
func (m *Model) ActiveCores() int {
	return m.activeByClass[0] + m.activeByClass[1] + m.activeByClass[2]
}

// Cycles converts a cycle count on a core to a duration at its current
// frequency.
func (m *Model) Cycles(core int, cycles float64) sim.Duration {
	f := m.CoreGHz(core)
	return sim.DurationOfSeconds(cycles / (f * 1e9))
}

// FlopsRate returns the peak flop rate (flops/s) of a core running the
// given vector class at its current frequency.
func (m *Model) FlopsRate(core int, class topology.VecClass) float64 {
	return m.CoreGHz(core) * 1e9 * m.spec.FlopsPerCycle[class]
}

// UncoreScale returns uncore/UncoreMax in (0,1], the factor by which
// uncore-clocked throughput (memory controllers) scales.
func (m *Model) UncoreScale() float64 {
	return m.uncoreGHz / m.spec.Freq.UncoreMax
}

// StartTrace begins recording frequency transitions.
func (m *Model) StartTrace() {
	m.tracing = true
	m.trace = m.trace[:0]
	m.record()
}

// StopTrace stops recording and returns the samples.
func (m *Model) StopTrace() []Sample {
	m.tracing = false
	return m.trace
}

// recompute recalculates all domain frequencies from the governor,
// turbo state and active-core census, then notifies listeners if
// anything moved. Energy is accrued at the old state first.
func (m *Model) recompute() {
	m.accrueEnergy()
	m.moved = m.moved[:0]
	for c := range m.coreGHz {
		m.retarget(c)
	}
	m.publish()
}

// retarget moves a core to its target frequency, noting the core if its
// frequency changed.
func (m *Model) retarget(core int) {
	if f := m.targetFreq(core); f != m.coreGHz[core] {
		m.coreGHz[core] = f
		m.moved = append(m.moved, core)
	}
}

// publish moves the uncore domain to its target, then records and
// notifies listeners if the update moved any domain.
func (m *Model) publish() {
	u := m.targetUncore()
	uncore := u != m.uncoreGHz
	m.uncoreGHz = u
	if len(m.moved) == 0 && !uncore {
		return
	}
	if m.tracing {
		m.record()
	}
	for _, fn := range m.listeners {
		fn(m.moved, uncore)
	}
}

func (m *Model) targetFreq(core int) float64 {
	fs := m.spec.Freq
	switch m.governor {
	case Powersave:
		return fs.CoreMin
	case Userspace:
		return m.userspaceGHz
	}
	// Performance governor.
	if !m.active[core] {
		return fs.CoreMin
	}
	if !m.turboEnabled {
		return fs.CoreBase
	}
	class := m.class[core]
	limit := fs.Turbo[class].Limit(m.activeByClass[class])
	if limit < fs.CoreMin {
		return fs.CoreMin
	}
	return limit
}

func (m *Model) targetUncore() float64 {
	fs := m.spec.Freq
	if m.uncoreFixed {
		return m.uncoreFixedV
	}
	// Demand-driven: ramps from min to max as cores activate; four
	// active cores saturate the domain.
	active := m.ActiveCores()
	frac := float64(active) / 4
	if frac > 1 {
		frac = 1
	}
	return fs.UncoreMin + (fs.UncoreMax-fs.UncoreMin)*frac
}

// record snapshots every domain into the trace.
func (m *Model) record() {
	now := m.k.Now()
	for c, f := range m.coreGHz {
		m.trace = append(m.trace, Sample{At: now, Core: c, GHz: f})
	}
	m.trace = append(m.trace, Sample{At: now, Core: -1, GHz: m.uncoreGHz})
}
