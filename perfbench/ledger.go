package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/trace"
)

// The ledger times calls into each layer from outside the program: a
// CacheStore wrapper around the point cache, the runner's per-experiment
// metrics, and (for the daemon) client and handler timings. Spans are
// kept in memory and written as Chrome trace-event JSON when the run
// ends, viewable in Perfetto or chrome://tracing.

// maxSpans bounds the in-memory trace; later spans are counted, not kept.
const maxSpans = 250000

type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// tracer collects spans relative to the run's origin.
type tracer struct {
	origin  time.Time
	mu      sync.Mutex
	events  []traceEvent
	dropped int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) span(name, cat string, tid int, start, end time.Time, args map[string]any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.events) >= maxSpans {
		t.dropped++
		return
	}
	t.events = append(t.events, traceEvent{
		Name: name, Cat: cat, Ph: "X", Pid: 1, Tid: tid,
		Ts:   float64(start.Sub(t.origin).Nanoseconds()) / 1e3,
		Dur:  float64(end.Sub(start).Nanoseconds()) / 1e3,
		Args: args,
	})
}

// threadName labels a trace row.
func threadName(tid int) string {
	switch tid {
	case tidCampaign:
		return "campaign"
	case tidExperiment:
		return "experiments"
	case tidCache:
		return "point cache"
	case tidPoint:
		return "points"
	}
	return fmt.Sprintf("client-%d", tid-tidClient)
}

func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	events := slices.Clip(t.events) // appending the row names must not touch t.events
	named := map[int]bool{}
	for _, e := range t.events {
		if !named[e.Tid] {
			named[e.Tid] = true
			events = append(events, traceEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: e.Tid,
				Args: map[string]any{"name": threadName(e.Tid)}})
		}
	}
	err = json.NewEncoder(w).Encode(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData":       map[string]any{"dropped_spans": t.dropped},
	})
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// cacheOp is one timed call into the point cache.
type cacheOp struct {
	store      bool
	hit        bool
	start, end time.Time
}

// campaignLedger records one traced campaign's cache calls and point
// executions. With Workers: 1 a point runs on the campaign's only
// worker between its Load miss and its Store, so that interval is the
// point's execution span.
type campaignLedger struct {
	tr *tracer

	mu           sync.Mutex
	missAt       map[string]time.Time
	ops          []cacheOp
	points       []cacheOp // execution spans (start = miss, end = store call)
	storedWorlds int
	open, close  time.Duration
	exps         map[string]interval // experiment ID → its Run call
}

type interval struct{ start, end time.Time }

// Trace rows: a campaign's, then one per daemon-mix client from
// tidClient on.
const (
	tidCampaign = iota + 1
	tidExperiment
	tidCache
	tidPoint
	tidClient
)

func newCampaignLedger(tr *tracer) *campaignLedger {
	return &campaignLedger{tr: tr, missAt: map[string]time.Time{}, exps: map[string]interval{}}
}

// timeExperiments returns copies of exps whose Run records its interval.
func (l *campaignLedger) timeExperiments(exps []core.Experiment) []core.Experiment {
	out := make([]core.Experiment, len(exps))
	for i, e := range exps {
		run := e.Run
		id := e.ID
		e.Run = func(env bench.Env) []*trace.Table {
			t0 := time.Now()
			tables := run(env)
			t1 := time.Now()
			l.mu.Lock()
			l.exps[id] = interval{t0, t1}
			l.mu.Unlock()
			return tables
		}
		out[i] = e
	}
	return out
}

// tracedStore wraps the point cache, timing Load and Store.
type tracedStore struct {
	inner runner.CacheStore
	l     *campaignLedger
}

func (c *tracedStore) Load(fullKey string) (bench.PointRecord, bool, bool, bool) {
	t0 := time.Now()
	rec, ok, mismatch, ioErr := c.inner.Load(fullKey)
	t1 := time.Now()
	c.l.mu.Lock()
	c.l.ops = append(c.l.ops, cacheOp{hit: ok, start: t0, end: t1})
	if !ok {
		c.l.missAt[fullKey] = t1
	}
	c.l.mu.Unlock()
	return rec, ok, mismatch, ioErr
}

func (c *tracedStore) Store(fullKey string, rec bench.PointRecord) error {
	t0 := time.Now()
	err := c.inner.Store(fullKey, rec)
	t1 := time.Now()
	c.l.mu.Lock()
	if m, ok := c.l.missAt[fullKey]; ok {
		delete(c.l.missAt, fullKey)
		c.l.points = append(c.l.points, cacheOp{start: m, end: t0})
	}
	c.l.ops = append(c.l.ops, cacheOp{store: true, start: t0, end: t1})
	c.l.storedWorlds += rec.Worlds
	c.l.mu.Unlock()
	return err
}

// expCost is one row of the per-experiment cost table.
type expCost struct {
	ID         string
	Compiled   bool // the experiment compiles to sweep points
	WallMs     float64
	Loads      int
	Hits       int
	Stores     int
	PointMs    float64
	CacheMs    float64
	SimSeconds float64
	Worlds     int
}

// campaignSplit is a traced campaign's wall split by layer. The parts
// sum to Wall: Glue is what remains outside cache, point and uncompiled
// experiment spans (sweep drivers, memo hits, rendering, scheduling).
type campaignSplit struct {
	Wall, Open, Load, Store, Close, Point, Uncached, Glue time.Duration

	Loads, Hits, Stores, MemoHits int
	PointWalls                    []time.Duration
	LoadWalls                     []time.Duration
	StoredWorlds, Worlds          int
	SimSeconds                    float64
	Costs                         []expCost
}

// split attributes a finished traced campaign. Experiments run one at a
// time; each owns the cache calls and points that start inside the
// interval its Run function was timed over.
func (l *campaignLedger) split(start, end time.Time, results []runner.Result, compiled map[string]bool, stats *runner.CacheStats) campaignSplit {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := campaignSplit{
		Wall: end.Sub(start), Open: l.open, Close: l.close,
		MemoHits: int(stats.MemoHits), StoredWorlds: l.storedWorlds,
	}
	starts := make([]time.Time, len(results))
	s.Costs = make([]expCost, len(results))
	for i, r := range results {
		iv := l.exps[r.Exp.ID]
		starts[i] = iv.start
		s.Costs[i] = expCost{
			ID: r.Exp.ID, Compiled: compiled[r.Exp.ID], WallMs: ms(r.Metrics.Wall),
			SimSeconds: r.Metrics.SimSeconds, Worlds: r.Metrics.Worlds,
		}
		s.Worlds += r.Metrics.Worlds
		s.SimSeconds += r.Metrics.SimSeconds
		if !compiled[r.Exp.ID] {
			s.Uncached += r.Metrics.Wall
		}
		l.tr.span(r.Exp.ID, "experiment", tidExperiment, iv.start, iv.end,
			map[string]any{"worlds": r.Metrics.Worlds, "sim_s": r.Metrics.SimSeconds})
	}
	owner := func(t time.Time) int {
		i := sort.Search(len(starts), func(i int) bool { return starts[i].After(t) }) - 1
		if i >= 0 && t.After(l.exps[results[i].Exp.ID].end) {
			return -1 // between experiments: glue
		}
		return i
	}
	for _, op := range l.ops {
		d := op.end.Sub(op.start)
		name := "cache.load"
		if op.store {
			name = "cache.store"
			s.Store += d
			s.Stores++
		} else {
			s.Load += d
			s.Loads++
			s.LoadWalls = append(s.LoadWalls, d)
			if op.hit {
				s.Hits++
			}
		}
		if i := owner(op.start); i >= 0 {
			c := &s.Costs[i]
			c.CacheMs += ms(d)
			if op.store {
				c.Stores++
			} else {
				c.Loads++
				if op.hit {
					c.Hits++
				}
			}
		}
		l.tr.span(name, "cache", tidCache, op.start, op.end, map[string]any{"hit": op.hit})
	}
	for _, p := range l.points {
		d := p.end.Sub(p.start)
		s.Point += d
		s.PointWalls = append(s.PointWalls, d)
		if i := owner(p.start); i >= 0 {
			s.Costs[i].PointMs += ms(d)
		}
		l.tr.span("point", "point", tidPoint, p.start, p.end, nil)
	}
	s.Glue = s.Wall - s.Open - s.Load - s.Store - s.Close - s.Point - s.Uncached
	l.tr.span("campaign", "campaign", tidCampaign, start, end, map[string]any{
		"open_ms": ms(s.Open), "close_ms": ms(s.Close), "glue_ms": ms(s.Glue),
	})
	return s
}

// writeCostTable prints the per-experiment cost table of one campaign.
func writeCostTable(w io.Writer, s campaignSplit) {
	fmt.Fprintf(w, "%-22s %-9s %9s %6s %6s %6s %9s %9s %11s %7s\n",
		"experiment", "kind", "wall_ms", "loads", "hits", "stores", "point_ms", "cache_ms", "sim_s", "worlds")
	for _, c := range s.Costs {
		kind := "points"
		if !c.Compiled {
			kind = "uncached"
		}
		fmt.Fprintf(w, "%-22s %-9s %9.1f %6d %6d %6d %9.1f %9.2f %11.4g %7d\n",
			c.ID, kind, c.WallMs, c.Loads, c.Hits, c.Stores, c.PointMs, c.CacheMs, c.SimSeconds, c.Worlds)
	}
	fmt.Fprintf(w, "campaign %.1fms = open %.2f + load %.1f + store %.1f + close %.1f + point %.1f + uncached %.1f + glue %.1f\n",
		ms(s.Wall), ms(s.Open), ms(s.Load), ms(s.Store), ms(s.Close), ms(s.Point), ms(s.Uncached), ms(s.Glue))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
