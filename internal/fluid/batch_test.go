package fluid

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// Batch-scope tests: a burst of same-instant mutations applied inside
// one Hold/Release must leave the model exactly as the same burst
// applied one re-solve at a time — rates, loads, flow-list order, the
// next completion and the order completions fire in.

// twin is one of two identically built models driven in lockstep.
type twin struct {
	k     *sim.Kernel
	m     *Model
	res   []*Resource
	flows []*Flow // in start order
	log   []string
}

// newTwin builds a random world from seed; equal seeds give equal
// worlds.
func newTwin(seed int64) *twin {
	rng := rand.New(rand.NewSource(seed))
	tw := &twin{k: sim.NewKernel(seed)}
	tw.m = NewModel(tw.k)
	tw.m.differential = true
	for i, n := 0, 1+rng.Intn(8); i < n; i++ {
		tw.res = append(tw.res, tw.m.NewResource(fmt.Sprintf("r%d", i), 1+rng.Float64()*99))
	}
	for i, n := 0, rng.Intn(16); i < n; i++ {
		tw.start(randomSpec(rng, len(tw.res), false))
	}
	return tw
}

// randomSpec draws a flow over a random subset of nRes resources (by
// index, in Use.Weight order), sometimes with no uses and only a cap,
// and, with zeroWork, sometimes with no work at all.
func randomSpec(rng *rand.Rand, nRes int, zeroWork bool) batchSpec {
	s := batchSpec{work: 1e2 + rng.Float64()*1e5, priority: 0.5 + rng.Float64()*3}
	if zeroWork && rng.Intn(4) == 0 {
		s.work = 0
	}
	if rng.Intn(5) > 0 {
		for _, ri := range rng.Perm(nRes)[:1+rng.Intn(min(3, nRes))] {
			s.res = append(s.res, ri)
			s.weights = append(s.weights, 0.25+rng.Float64()*3.75)
		}
	}
	if len(s.res) == 0 || rng.Intn(3) == 0 {
		s.cap = 1 + rng.Float64()*50
	}
	return s
}

// batchSpec is a FlowSpec with resources by index, so one draw can be
// started on both twins.
type batchSpec struct {
	work, cap, priority float64
	res                 []int
	weights             []float64
}

func (tw *twin) start(s batchSpec) {
	name := fmt.Sprintf("f%d", len(tw.flows))
	spec := FlowSpec{Name: name, Work: s.work, Cap: s.cap, Priority: s.priority}
	for i, ri := range s.res {
		spec.Uses = append(spec.Uses, Use{tw.res[ri], s.weights[i]})
	}
	spec.OnDone = func() { tw.log = append(tw.log, fmt.Sprintf("%s@%d", name, tw.k.Now())) }
	tw.flows = append(tw.flows, tw.m.Start(spec))
}

// batchOp is one same-instant mutation, drawn once and applied to both
// twins.
type batchOp struct {
	kind int
	i    int
	v    float64
	spec batchSpec
}

func drawOp(rng *rand.Rand, tw *twin) batchOp {
	op := batchOp{kind: rng.Intn(4)}
	switch op.kind {
	case 0: // capacity change, sometimes to the current value
		op.i = rng.Intn(len(tw.res))
		op.v = 1 + rng.Float64()*99
		if rng.Intn(5) == 0 {
			op.v = tw.res[op.i].capacity
		}
	case 1: // cap change; 0 lifts the cap of a flow with uses
		op.v = 1 + rng.Float64()*50
		if rng.Intn(4) == 0 {
			op.v = 0
		}
		op.i = rng.Intn(len(tw.flows) + 1)
	case 2:
		op.spec = randomSpec(rng, len(tw.res), true)
	case 3: // cancel, finished flows included
		op.i = rng.Intn(len(tw.flows) + 1)
	}
	return op
}

func (tw *twin) apply(op batchOp) {
	switch op.kind {
	case 0:
		tw.m.SetCapacity(tw.res[op.i], op.v)
	case 1:
		if op.i < len(tw.flows) {
			if f := tw.flows[op.i]; !f.finished && (len(f.uses) > 0 || op.v > 0) {
				tw.m.SetCap(f, op.v)
			}
		}
	case 2:
		tw.start(op.spec)
	case 3:
		if op.i < len(tw.flows) {
			tw.m.Cancel(tw.flows[op.i])
		}
	}
}

// sameState compares the twins bit for bit.
func sameState(t *testing.T, what string, a, b *twin) {
	t.Helper()
	if len(a.m.flows) != len(b.m.flows) {
		t.Fatalf("%s: %d active flows batched, %d one by one", what, len(a.m.flows), len(b.m.flows))
	}
	for i := range a.m.flows {
		if a.m.flows[i].name != b.m.flows[i].name {
			t.Fatalf("%s: flow list slot %d holds %s batched, %s one by one", what, i, a.m.flows[i].name, b.m.flows[i].name)
		}
	}
	for i, fa := range a.flows {
		fb := b.flows[i]
		if fa.rate != fb.rate || fa.remaining != fb.remaining || fa.finished != fb.finished {
			t.Fatalf("%s: flow %s rate %x remaining %x finished %v batched; rate %x remaining %x finished %v one by one",
				what, fa.name, fa.rate, fa.remaining, fa.finished, fb.rate, fb.remaining, fb.finished)
		}
	}
	for i, ra := range a.res {
		if ra.load != b.res[i].load {
			t.Fatalf("%s: resource %s load %x batched, %x one by one", what, ra.name, ra.load, b.res[i].load)
		}
	}
	if fmt.Sprint(a.log) != fmt.Sprint(b.log) {
		t.Fatalf("%s: completions %v batched, %v one by one", what, a.log, b.log)
	}
}

// TestBatchEquivalenceStorm applies random same-instant bursts —
// capacity and cap changes, starts (zero-work ones included), cancels
// (cap-only flows included) — inside one scope, with nested scopes at
// random, and one by one on a twin, between random advances of the
// clock; then it steps both kernels event by event to the end.
func TestBatchEquivalenceStorm(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		a, b := newTwin(seed), newTwin(seed)
		rng := rand.New(rand.NewSource(seed))
		for round := 0; round < 8; round++ {
			to := a.k.Now().Add(sim.Duration(rng.Int63n(int64(2 * sim.Second))))
			a.k.RunUntil(to)
			b.k.RunUntil(to)
			sameState(t, fmt.Sprintf("seed %d round %d advance", seed, round), a, b)

			a.m.Hold()
			depth := 1
			for n := rng.Intn(12); n > 0; n-- {
				switch r := rng.Intn(8); {
				case r == 0:
					a.m.Hold()
					depth++
				case r == 1 && depth > 1:
					a.m.Release()
					depth--
				}
				op := drawOp(rng, a)
				a.apply(op)
				b.apply(op)
			}
			for ; depth > 0; depth-- {
				a.m.Release()
			}
			sameState(t, fmt.Sprintf("seed %d round %d batch", seed, round), a, b)
		}
		for a.k.Step() {
			if !b.k.Step() || a.k.Now() != b.k.Now() {
				t.Fatalf("seed %d: event at %v batched, one by one at %v", seed, a.k.Now(), b.k.Now())
			}
			sameState(t, fmt.Sprintf("seed %d drain", seed), a, b)
		}
		if b.k.Step() {
			t.Fatalf("seed %d: one-by-one twin has events left", seed)
		}
	}
}

// TestBatchDueFlowResolvesAtOnce: a flow a third of a nanosecond from
// completion when a scope opens. Raising its bandwidth fourfold puts it
// inside completeEps, so the one-by-one chain completes it on that
// first re-solve — before the next start joins the flow list. The scope
// must resolve that first mutation at once; deferring it would share
// the bus with the new flow, keep the due flow alive for another
// nanosecond and leave the flow list in another order.
func TestBatchDueFlowResolvesAtOnce(t *testing.T) {
	run := func(batched bool) []string {
		k := sim.NewKernel(1)
		m := NewModel(k)
		bus := m.NewResource("bus", 3)
		var log []string
		note := func(name string) func() {
			return func() { log = append(log, fmt.Sprintf("%s@%d", name, k.Now())) }
		}
		m.Start(FlowSpec{Name: "due", Work: 1, Uses: []Use{{bus, 1}}, OnDone: note("due")})
		m.Start(FlowSpec{Name: "other", Work: 1e9, Cap: 1, OnDone: note("other")})
		k.RunUntil(333333333) // due completes at 333333333.33 ns
		if batched {
			m.Hold()
		}
		m.SetCapacity(bus, 12)
		m.Start(FlowSpec{Name: "late", Work: 1, Uses: []Use{{bus, 1}}, OnDone: note("late")})
		if batched {
			m.Release()
		}
		for _, f := range m.flows {
			log = append(log, "active:"+f.name)
		}
		k.RunUntil(2e9)
		return log
	}
	chain, batch := run(false), run(true)
	if fmt.Sprint(chain) != fmt.Sprint(batch) {
		t.Fatalf("batched %v, one by one %v", batch, chain)
	}
	if chain[0] != "active:other" {
		t.Fatalf("the due flow should complete on the first re-solve: %v", chain)
	}
}

// TestBatchMisuse: a scope must be balanced, must not span simulated
// time with a deferred re-solve, and must be closed before Reset.
func TestBatchMisuse(t *testing.T) {
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		fn()
	}
	k := sim.NewKernel(1)
	m := NewModel(k)
	r := m.NewResource("r", 1)
	mustPanic("Release without Hold", m.Release)

	m.Hold()
	mustPanic("Reset inside a scope", m.Reset)
	m.Release()
	m.Reset()

	f := m.Start(FlowSpec{Name: "f", Work: 10, Uses: []Use{{r, 1}}})
	m.Hold()
	m.SetCapacity(r, 2)
	if f.Rate() != 1 {
		t.Fatalf("rate %v inside the scope, want the last re-solve's 1", f.Rate())
	}
	k.RunUntil(k.Now().Add(sim.Millisecond))
	mustPanic("time passing with a deferred re-solve", func() { m.SetCapacity(r, 3) })
}
