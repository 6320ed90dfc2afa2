package fluid

import (
	"fmt"
	"math"
)

// This file keeps the original whole-model, map-based progressive
// filling solver. It is not used on the simulation hot path; it exists
// as the ground truth the incremental solver is checked against:
//
//   - Model.UseReference(true) swaps it in for every re-solve, giving
//     benchmarks and tests an apples-to-apples baseline.
//   - SetDifferential(true) shadows every incremental solve with this
//     solver and panics if any rate or load disagrees by more than one
//     ulp (the oracle behind `cmd/interference -verify` and the
//     property suite).
//
// The arithmetic here — iteration orders, clamp thresholds, the order
// of additions and subtractions — is a line-for-line copy of the
// pre-incremental solver, so its results define what "byte-identical
// goldens" means.

// solveReferenceInPlace recomputes every flow rate and resource load
// from scratch with the original algorithm, writing the results into
// the model (rates into flows, loads into resources).
func (m *Model) solveReferenceInPlace() {
	n := len(m.flows)
	for _, r := range m.resources {
		r.load = 0
	}
	if n == 0 {
		return
	}
	m.solves++
	avail := make(map[*Resource]float64, len(m.resources))
	wsum := make(map[*Resource]float64, len(m.resources))
	for _, r := range m.resources {
		avail[r] = r.capacity
	}
	fixed := make([]bool, n)
	for i, f := range m.flows {
		f.rate = 0
		if f.remaining <= 0 {
			// Already-done flows (awaiting collection) consume nothing.
			fixed[i] = true
			continue
		}
		for _, u := range f.uses {
			wsum[u.Resource] += u.Weight * f.priority
		}
	}
	remaining := 0
	for i := range fixed {
		if !fixed[i] {
			remaining++
		}
	}
	for remaining > 0 {
		// Candidate fair normalised rate: the tightest bottleneck.
		bottleneck := (*Resource)(nil)
		fair := math.Inf(1)
		for _, r := range m.resources {
			if wsum[r] <= 0 {
				continue
			}
			c := avail[r] / wsum[r]
			if c < fair {
				fair = c
				bottleneck = r
			}
		}
		// Candidate: the smallest normalised cap among unfixed flows.
		capMin := math.Inf(1)
		for i, f := range m.flows {
			if !fixed[i] && f.cap > 0 {
				if c := f.cap / f.priority; c < capMin {
					capMin = c
				}
			}
		}
		switch {
		case capMin < fair:
			// Fix every unfixed flow whose normalised cap is the minimum.
			for i, f := range m.flows {
				if fixed[i] || f.cap <= 0 || f.cap/f.priority > capMin {
					continue
				}
				m.fixReference(f, capMin, avail, wsum)
				fixed[i] = true
				remaining--
			}
		case bottleneck != nil:
			// Fix every unfixed flow using the bottleneck at the fair rate.
			for i, f := range m.flows {
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
				m.fixReference(f, fair, avail, wsum)
				fixed[i] = true
				remaining--
			}
		default:
			// No bottleneck and no cap below it: flows whose every
			// resource already drained to zero availability. Their fair
			// share is zero.
			for i, f := range m.flows {
				if !fixed[i] {
					f.rate = 0
					fixed[i] = true
					remaining--
				}
			}
		}
	}
	for _, f := range m.flows {
		for _, u := range f.uses {
			u.Resource.load += u.Weight * f.rate
		}
	}
}

// fixReference is the original fix: assign the normalised rate (scaled
// by priority) and withdraw the flow's consumption from the maps.
func (m *Model) fixReference(f *Flow, normRate float64, avail, wsum map[*Resource]float64) {
	f.rate = normRate * f.priority
	if f.cap > 0 && f.rate > f.cap {
		f.rate = f.cap
	}
	for _, u := range f.uses {
		avail[u.Resource] -= u.Weight * f.rate
		if avail[u.Resource] < 0 {
			avail[u.Resource] = 0
		}
		wsum[u.Resource] -= u.Weight * f.priority
		if wsum[u.Resource] < 1e-12 {
			wsum[u.Resource] = 0
		}
	}
}

// referenceRates runs the reference solver without touching model
// state and returns the rate of each flow (indexed like m.flows) and
// the load of each resource (indexed by Resource.id).
func (m *Model) referenceRates() (rates []float64, loads []float64) {
	// Save, solve in place, harvest, restore. The model is
	// single-threaded (driven by one sim kernel), so this is safe.
	savedRates := make([]float64, len(m.flows))
	for i, f := range m.flows {
		savedRates[i] = f.rate
	}
	savedLoads := make([]float64, len(m.resources))
	for i, r := range m.resources {
		savedLoads[i] = r.load
	}
	savedSolves := m.solves

	m.solveReferenceInPlace()

	rates = make([]float64, len(m.flows))
	for i, f := range m.flows {
		rates[i] = f.rate
	}
	loads = make([]float64, len(m.resources))
	for i, r := range m.resources {
		loads[i] = r.load
	}

	for i, f := range m.flows {
		f.rate = savedRates[i]
	}
	for i, r := range m.resources {
		r.load = savedLoads[i]
	}
	m.solves = savedSolves
	return rates, loads
}

// ulpEq reports whether a and b are equal or adjacent floating-point
// values (within one ulp).
func ulpEq(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Nextafter(a, b) == b
}

// checkOracle compares the incremental solver's current allocation
// against a fresh reference solve and panics on any disagreement
// beyond one ulp. (In practice the two are bit-identical — see the
// equivalence argument in DESIGN.md §4 — the ulp slack only exists so
// a hypothetical future divergence produces a clear message instead of
// a golden-file diff.)
func (m *Model) checkOracle() {
	rates, loads := m.referenceRates()
	for i, f := range m.flows {
		if !ulpEq(f.rate, rates[i]) {
			panic(errOracle("flow", f.name, f.rate, rates[i]))
		}
	}
	for i, r := range m.resources {
		if !ulpEq(r.load, loads[i]) {
			panic(errOracle("resource", r.name, r.load, loads[i]))
		}
	}
}

func errOracle(kind, name string, got, want float64) string {
	// %x prints the exact hex-float value, so a report pins down the
	// bit pattern, not a rounded decimal.
	return fmt.Sprintf("fluid: differential oracle: %s %q incremental=%x reference=%x",
		kind, name, got, want)
}
