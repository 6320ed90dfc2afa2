package bench

// The sweep layer turns an experiment's nested parameter loops into a
// flat, index-ordered slice of independently schedulable points. Each
// point owns a fresh isolated Env clone (its own spec copy and meter),
// so a campaign scheduler may execute points from *different*
// experiments side by side, in any completion order, and still merge
// results back by index — the rendered tables are byte-identical to a
// serial run at every worker count.
//
// Point results are canonicalised through JSON: a freshly computed
// point is marshalled and decoded through exactly the same path as a
// point replayed from a persistent cache, so "cold" and "warm"
// campaigns cannot diverge even by a formatting bit. The encoded
// PointRecord also carries the point's simulation accounting
// (simulated seconds, world count, fault totals), which the owning
// experiment's meter absorbs in index order — campaign summaries and
// journal entries stay deterministic whether a point was executed or
// replayed.

import (
	"encoding/json"
	"fmt"
)

// PointSchema versions the encoded PointRecord format. Cached records
// with a different schema are ignored (a stale cache degrades to a
// recompute, never to corrupt output).
const PointSchema = 1

// SweepVersion versions the *measurement logic* of the sweep drivers:
// bump it whenever a driver changes what a point with an existing key
// computes (protocol steps, iteration counts, derived statistics), so
// content-addressed caches keyed before the change miss instead of
// serving measurements of the old logic.
const SweepVersion = 1

// Point is one independently schedulable cell of an experiment's
// parameter grid.
type Point struct {
	// Key identifies the cell completely and stably: the sweep's name
	// plus every parameter that influences Fn's result (e.g.
	// "contention/data=near/comm=far/kernel=triad-default/cores=7").
	// Two points with equal keys under the same environment must compute
	// identical results — the campaign cache is addressed by this key,
	// so an under-descriptive key silently serves stale data.
	Key string
	// Fn computes the cell against an isolated environment (fresh spec
	// clone, fresh meter, inline nested sweeps). The returned value must
	// survive a JSON round-trip unchanged: exported fields only, no NaN
	// or ±Inf.
	Fn func(env Env) any
}

// PointRecord is the transportable outcome of one point: the encoded
// payload plus the simulation accounting its execution produced. It is
// the unit stored in the campaign's content-addressed cache.
type PointRecord struct {
	Schema int `json:"schema"`
	// Key echoes the full cache key the record was computed under, so a
	// poisoned or misfiled cache entry is detected by comparing the
	// stored key against the requested one (never served silently).
	Key     string          `json:"key"`
	Payload json.RawMessage `json:"payload"`
	// Accounting of the execution, replayed into the owning
	// experiment's meter on decode (cache hits included).
	SimSeconds float64     `json:"sim_seconds"`
	Worlds     int         `json:"worlds"`
	Faults     FaultTotals `json:"faults"`
	// Panic carries a panic value raised while computing the point; it
	// is re-raised on the owning experiment's goroutine by RunPointsAs
	// (a point executed by a stranger's worker must fail the experiment
	// that owns it, not the one that happened to run it). Never stored
	// in the cache.
	Panic any `json:"-"`
	// Steps, Switches and Solves are exact work counters of the
	// execution's worlds, for tests: kernel events run, process resumes
	// and fluid re-solves (see Meter.Steps). Like Panic they are never
	// stored: a record replayed from the cache reports zero.
	Steps    uint64 `json:"-"`
	Switches uint64 `json:"-"`
	Solves   uint64 `json:"-"`
}

// PointRunner schedules compiled sweeps. The campaign runner installs
// one on Env.Sched to execute points from all experiments on a shared
// pool (with optional persistent caching); a nil Sched runs points
// inline, serially, with identical semantics.
type PointRunner interface {
	// RunPoints executes every point (in any order, possibly from
	// cache) and returns one record per point, index-aligned with pts.
	RunPoints(env Env, pts []Point) []PointRecord
}

// ExecutePoint runs one point against an isolated clone of env and
// encodes the outcome. It never panics: a panic inside the point's Fn
// (or a non-encodable result) is captured in the record's Panic field
// for the sweep's owner to re-raise.
func ExecutePoint(env Env, p Point) PointRecord {
	iso := env.Isolated()
	// Sweeps nested inside a point run inline: the point is already the
	// unit of scheduling, and re-entering the pool from inside a worker
	// would only add queueing overhead.
	iso.Sched = nil
	// Worlds built for this point are recycled through the arena (or
	// shut down) once the record below is sealed (see arena.go).
	iso.keeper.pool = true
	defer iso.Release()
	rec := PointRecord{Schema: PointSchema, Key: p.Key}
	var v any
	func() {
		defer func() {
			if pa := recover(); pa != nil {
				rec.Panic = pa
			}
		}()
		v = p.Fn(iso)
	}()
	if rec.Panic != nil {
		return rec
	}
	payload, err := json.Marshal(v)
	if err != nil {
		rec.Panic = fmt.Sprintf("bench: point %q result is not JSON-encodable: %v", p.Key, err)
		return rec
	}
	rec.Payload = payload
	rec.SimSeconds = iso.Meter.SimSeconds()
	rec.Worlds = iso.Meter.Worlds()
	rec.Faults = iso.Meter.FaultTotals()
	rec.Steps = iso.Meter.Steps()
	rec.Switches = iso.Meter.Switches()
	rec.Solves = iso.Meter.Solves()
	return rec
}

// RunPointsAs executes a compiled sweep and decodes the results in
// index order. With a scheduler installed on the environment the points
// run on the campaign's shared pool (stealing-friendly, cache-backed);
// otherwise they run inline in index order. Either way the returned
// slice is index-aligned with pts and the environment's meter absorbs
// each point's accounting in index order, so every downstream number is
// independent of execution order.
func RunPointsAs[T any](env Env, pts []Point) []T {
	var recs []PointRecord
	if env.Sched != nil {
		recs = env.Sched.RunPoints(env, pts)
	} else {
		recs = make([]PointRecord, len(pts))
		for i, p := range pts {
			recs[i] = ExecutePoint(env, p)
		}
	}
	out := make([]T, len(pts))
	for i, rec := range recs {
		if rec.Panic != nil {
			panic(rec.Panic)
		}
		if err := json.Unmarshal(rec.Payload, &out[i]); err != nil {
			panic(fmt.Sprintf("bench: decoding point %q: %v", pts[i].Key, err))
		}
		if env.Meter != nil {
			env.Meter.Absorb(rec.SimSeconds, rec.Worlds, rec.Faults)
		}
	}
	return out
}
