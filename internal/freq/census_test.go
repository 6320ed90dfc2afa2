package freq

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// fullSetActive and fullSetIdle are the census updates without the
// incremental path: change the census, then recompute every domain.
func fullSetActive(m *Model, core int, class topology.VecClass) {
	if m.active[core] {
		if m.class[core] == class {
			return
		}
		m.accrueEnergy()
		m.activeByClass[m.class[core]]--
	} else {
		m.accrueEnergy()
	}
	m.active[core] = true
	m.class[core] = class
	m.activeByClass[class]++
	m.recompute()
}

func fullSetIdle(m *Model, core int) {
	if !m.active[core] {
		return
	}
	m.accrueEnergy()
	m.active[core] = false
	m.activeByClass[m.class[core]]--
	m.recompute()
}

// TestIncrementalCensusShadow drives random activations, idles and
// class changes — under every governor, turbo on and off, fixed and
// dynamic uncore, on every preset — through the incremental census and
// through a shadow model that recomputes every domain, and requires
// the same frequencies, listener calls (with the same moved cores),
// trace samples and energy after every step.
func TestIncrementalCensusShadow(t *testing.T) {
	presets := topology.Presets()
	names := make([]string, 0, len(presets))
	for name := range presets {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		spec := presets[name]
		for seed := int64(0); seed < 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			k := sim.NewKernel(seed)
			inc, ref := NewModel(k, spec), NewModel(k, spec)
			var incLog, refLog []string
			inc.OnChange(func(cores []int, uncore bool) { incLog = append(incLog, fmt.Sprint(cores, uncore)) })
			ref.OnChange(func(cores []int, uncore bool) { refLog = append(refLog, fmt.Sprint(cores, uncore)) })
			for _, m := range []*Model{inc, ref} {
				m.EnableEnergy(DefaultEnergyParams())
				m.StartTrace()
			}
			both := func(fn func(m *Model)) { fn(inc); fn(ref) }
			for step := 0; step < 400; step++ {
				core := rng.Intn(spec.Cores())
				switch op := rng.Intn(16); {
				case op < 8:
					class := topology.VecClass(rng.Intn(len(inc.activeByClass)))
					inc.SetActive(core, class)
					fullSetActive(ref, core, class)
				case op < 13:
					inc.SetIdle(core)
					fullSetIdle(ref, core)
				case op == 13:
					k.RunUntil(k.Now().Add(sim.Duration(1 + rng.Intn(int(sim.Millisecond)))))
				case op == 14:
					switch g := Governor(rng.Intn(3)); g {
					case Userspace:
						f := spec.Freq.CoreMin + rng.Float64()*(spec.Freq.CoreBase-spec.Freq.CoreMin)
						both(func(m *Model) { m.SetUserspace(f) })
					default:
						both(func(m *Model) { m.SetGovernor(g) })
					}
				default:
					on := rng.Intn(2) == 0
					f := spec.Freq.UncoreMin + rng.Float64()*(spec.Freq.UncoreMax-spec.Freq.UncoreMin)
					switch rng.Intn(3) {
					case 0:
						both(func(m *Model) { m.SetTurbo(on) })
					case 1:
						both(func(m *Model) { m.SetUncoreFixed(f) })
					default:
						both(func(m *Model) { m.SetUncoreDynamic() })
					}
				}
				where := fmt.Sprintf("%s seed %d step %d", name, seed, step)
				for c := range inc.coreGHz {
					if inc.coreGHz[c] != ref.coreGHz[c] {
						t.Fatalf("%s: core %d at %v GHz, full recompute %v", where, c, inc.coreGHz[c], ref.coreGHz[c])
					}
				}
				if inc.uncoreGHz != ref.uncoreGHz {
					t.Fatalf("%s: uncore at %v GHz, full recompute %v", where, inc.uncoreGHz, ref.uncoreGHz)
				}
				if !slices.Equal(incLog, refLog) {
					t.Fatalf("%s: listener calls %v, full recompute %v", where, incLog, refLog)
				}
				if !slices.Equal(inc.trace, ref.trace) {
					t.Fatalf("%s: trace differs from the full recompute's", where)
				}
				if a, b := inc.EnergyJoules(), ref.EnergyJoules(); a != b {
					t.Fatalf("%s: %x J, full recompute %x J", where, a, b)
				}
			}
			if len(incLog) == 0 {
				t.Fatalf("%s seed %d: no frequency change", name, seed)
			}
		}
	}
}
