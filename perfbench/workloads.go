package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/runner"
)

// Cold-paper and warm-replay always run the fixed golden campaign:
// every experiment on the henri preset at seed 1 with 3 runs, exactly
// what results/ pins. Only daemon-mix uses the workload seed.
const (
	goldenCluster = "henri"
	goldenSeed    = 1
	goldenRuns    = 3
)

// max_rss_mb is the process's peak resident set read when the timed
// phase completes this many operations, not at its end: processes of
// fault and fabric worlds leak parked goroutines (see README.md), so a
// reading at the end would grow with the number of operations a faster
// program fits into the phase. The timed phase runs at least this many.
const (
	coldRSSOps   = 1
	warmRSSOps   = 50
	daemonRSSOps = 5000
)

// shortExps is the campaign of --short runs: cheap experiments, one of
// them (sec5.2) not compiled to sweep points.
var shortExps = []string{"ext-overlap", "fabric-pingpong", "fig3", "sec5.2"}

var workloads = map[string]func(*harness) (*report, error){
	"cold-paper":  coldPaper,
	"warm-replay": warmReplay,
	"daemon-mix":  daemonMix,
}

type harness struct {
	root    string
	tmp     string
	seed    int64
	seconds time.Duration
	trace   bool
	short   bool
	tr      *tracer

	env      bench.Env
	exps     []core.Experiment
	goldens  map[string]string
	compiled map[string]bool
}

// op is one timed operation: a campaign, or one daemon request.
type op struct {
	wall   time.Duration
	cpu    time.Duration
	alloc  uint64
	traced bool
	failed bool
}

type report struct {
	setups  []time.Duration
	ops     []op
	elapsed time.Duration
	// maxRSS is the peak RSS in MB once rssOps operations completed.
	maxRSS float64
	rssOps int
	// perOp means each op carries its own cpu and alloc (operations ran
	// one at a time); otherwise cpu and alloc cover the timed phase.
	perOp bool
	cpu   time.Duration
	alloc uint64
	steal float64
	// collect is the time of the forced collections between campaigns,
	// left out of elapsed.
	collect time.Duration

	layers    map[string]float64
	costTable string
	notes     []string
	kinds     map[string]any // daemon-mix: latency per request kind

	mu       sync.Mutex // guards failures: daemon clients report concurrently
	failures []string
}

func (r *report) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *report) record(h *harness, workload string) map[string]any {
	rec := map[string]any{
		"workload":        workload,
		"seed":            h.seed,
		"traced":          h.trace,
		"short":           h.short,
		"host":            fingerprint(),
		"steal_s":         r.steal,
		"timed_s":         r.elapsed.Seconds(),
		"between_op_gc_s": r.collect.Seconds(),
		"ops":             len(r.ops),
		"setup_repeat":    len(r.setups),
		"tails":           tailNote(len(r.ops)),
		"max_rss_at_ops":  r.rssOps,
		"max_rss_end_mb":  maxRSSMB(),
		"notes":           r.notes,
	}
	if workload != "daemon-mix" {
		rec["seed_note"] = fmt.Sprintf("fixed golden campaign (%s, seed %d, runs %d); --seed does not change its inputs",
			goldenCluster, goldenSeed, goldenRuns)
		rec["op_walls_ms"] = opWalls(r.ops)
	}
	if r.kinds != nil {
		rec["request_kinds"] = r.kinds
	}
	if len(r.failures) > 0 {
		rec["failures"] = r.failures
	}
	return rec
}

// opWalls lists each operation's wall in milliseconds, in run order,
// so a slow stretch of a run (steal, GC) can be read from its record.
func opWalls(ops []op) []float64 {
	w := make([]float64, len(ops))
	for i, o := range ops {
		w[i] = math.Round(ms(o.wall)*1e3) / 1e3
	}
	return w
}

// loadGoldens is the setup every workload shares: the environment, the
// campaign and the golden renderings it is checked against.
func (h *harness) loadGoldens() error {
	env, err := core.Env(goldenCluster, goldenSeed, goldenRuns)
	if err != nil {
		return err
	}
	h.env = env
	h.exps = nil
	if h.short {
		for _, id := range shortExps {
			e, _ := core.ByID(id)
			h.exps = append(h.exps, e)
		}
	} else {
		h.exps = core.Experiments()
	}
	h.goldens = map[string]string{}
	h.compiled = map[string]bool{}
	for _, e := range h.exps {
		b, err := os.ReadFile(runner.GoldenPath(filepath.Join(h.root, "results"), e.ID, goldenCluster))
		if err != nil {
			return fmt.Errorf("loading goldens: %w", err)
		}
		h.goldens[e.ID] = string(b)
		h.compiled[e.ID] = e.Sweep != ""
	}
	return nil
}

// rssOps returns how many operations complete before max_rss_mb is
// read: n, or 1 in a --short run.
func (h *harness) rssOps(n int) int {
	if h.short {
		return 1
	}
	return n
}

// timed runs fn back to back for about h.seconds, alternating untraced
// and traced operations when tracing. The phase ends at the operation
// boundary nearest the deadline, so a workload whose operations take
// seconds runs the same whole number of them on every run, and not
// before rep.rssOps operations, after which it reads max_rss_mb.
//
// Each operation starts from a collected heap, as a separate CLI
// invocation starts from a fresh one: otherwise a GC cycle, whose mark
// phase scans every goroutine the earlier campaigns leaked (see
// README.md), lands in a campaign at random and its cost grows over the
// run. The collections run between operations and are left out of the
// phase's clock.
func (h *harness) timed(rep *report, fn func(traced bool) op) {
	steal0 := stealSeconds()
	start := time.Now()
	var collect time.Duration
	var walls []float64
	for i := 0; ; i++ {
		minOps := max(1, rep.rssOps)
		if h.trace {
			minOps = max(2, minOps) // one untraced, one traced
		}
		if i >= minOps && time.Since(start)-collect+time.Duration(percentile(walls, 0.5)/2*1e6) >= h.seconds {
			break
		}
		gc0 := time.Now()
		runtime.GC()
		collect += time.Since(gc0)
		o := fn(h.trace && i%2 == 1)
		rep.ops = append(rep.ops, o)
		walls = append(walls, ms(o.wall))
		if len(rep.ops) == rep.rssOps {
			rep.maxRSS = maxRSSMB()
		}
	}
	rep.elapsed = time.Since(start) - collect
	rep.collect = collect
	rep.steal = stealSeconds() - steal0
}

// profiler accumulates CPU-profile buckets and runtime counters over
// the traced intervals of a run.
type profiler struct {
	buf     bytes.Buffer
	rt0     runtimeSample
	buckets map[string]float64
	total   float64
	gc      uint64
	sched   []float64
	err     error
}

func (p *profiler) start() {
	p.buf.Reset()
	p.rt0 = readRuntime()
	if err := pprof.StartCPUProfile(&p.buf); err != nil && p.err == nil {
		p.err = err
	}
}

func (p *profiler) stop() {
	pprof.StopCPUProfile()
	rt1 := readRuntime()
	p.gc += rt1.gcCycles - p.rt0.gcCycles
	p.sched = append(p.sched, schedWaitP50(p.rt0, rt1))
	b, total, err := attributeProfile(p.buf.Bytes())
	p.total += total
	if err != nil {
		if p.err == nil {
			p.err = err
		}
		return
	}
	if p.buckets == nil {
		p.buckets = map[string]float64{}
	}
	for k, v := range b {
		p.buckets[k] += v
	}
}

// addTo writes the profile metrics per traced operation.
func (p *profiler) addTo(layers map[string]float64, tracedOps int) {
	if tracedOps == 0 {
		return
	}
	n := float64(tracedOps)
	for k, v := range p.buckets {
		name := k
		if !slices.Contains(selfBuckets, k) {
			name = "other"
		}
		layers[name+".self_s"] += v / n
	}
	layers["profile.total_s"] = p.total / n
	layers["runtime.gc_cycles"] = float64(p.gc) / n
	layers["runtime.sched_wait_p50_us"] = percentile(p.sched, 0.5) * 1e6
}

// campaign runs the golden campaign serially against the point cache in
// dir, exactly as one `interference -all -j 1 -cache dir` invocation
// does. With check it compares each rendering with its golden outside
// the timed interval (set-up fills skip that: a stale golden fails the
// timed operations, not the set-up). A traced campaign also profiles
// and splits its wall.
func (h *harness) campaign(dir string, check, traced bool, prof *profiler, rep *report) (op, *campaignSplit) {
	exps := h.exps
	var led *campaignLedger
	if traced {
		led = newCampaignLedger(h.tr)
		exps = led.timeExperiments(exps)
		prof.start()
	}
	stats := &runner.CacheStats{}
	results := make([]runner.Result, 0, len(exps))

	rt0, cpu0 := readRuntime(), cpuTime()
	start := time.Now()
	cache, err := runner.OpenPointCache(dir)
	if err != nil {
		rep.fail("opening point cache: %v", err)
		if traced {
			prof.stop()
		}
		return op{wall: time.Since(start), traced: traced, failed: true}, nil
	}
	var store runner.CacheStore = cache
	if led != nil {
		led.open = time.Since(start)
		store = &tracedStore{inner: cache, l: led}
	}
	for r := range runner.Run(h.env, exps, runner.Options{Workers: 1, Cache: store, CacheStats: stats}) {
		results = append(results, r)
	}
	closeStart := time.Now()
	closeErr := cache.Close()
	end := time.Now()
	o := op{wall: end.Sub(start), cpu: cpuTime() - cpu0,
		alloc: readRuntime().allocBytes - rt0.allocBytes, traced: traced}
	if traced {
		prof.stop()
	}

	if closeErr != nil {
		o.failed = true
		rep.fail("closing point cache: %v", closeErr)
	}
	if len(results) != len(h.exps) {
		o.failed = true
		rep.fail("campaign returned %d of %d experiments", len(results), len(h.exps))
	}
	for _, r := range results {
		switch {
		case r.Err != nil:
			o.failed = true
			rep.fail("%s: %v", r.Exp.ID, r.Err)
		case check && r.Rendered != h.goldens[r.Exp.ID]:
			o.failed = true
			rep.fail("%s: rendering differs from its golden", r.Exp.ID)
		}
	}
	if led == nil {
		return o, nil
	}
	led.close = end.Sub(closeStart)
	s := led.split(start, end, results, h.compiled, stats)
	return o, &s
}

// campaignLayers folds the traced campaigns' splits into the per-layer
// metrics (medians per campaign; point and load latencies pooled).
func campaignLayers(rep *report, splits []*campaignSplit) {
	if len(splits) == 0 {
		return
	}
	med := func(f func(s *campaignSplit) float64) float64 {
		xs := make([]float64, len(splits))
		for i, s := range splits {
			xs[i] = f(s)
		}
		return percentile(xs, 0.5)
	}
	var points, loads []float64
	for _, s := range splits {
		for _, d := range s.PointWalls {
			points = append(points, ms(d))
		}
		for _, d := range s.LoadWalls {
			loads = append(loads, float64(d.Nanoseconds())/1e3)
		}
	}
	l := rep.layers
	l["bench.point_p50_ms"] = percentile(points, 0.5)
	l["bench.point_p90_ms"] = percentile(points, 0.9)
	l["bench.point_s"] = med(func(s *campaignSplit) float64 { return s.Point.Seconds() })
	l["bench.points_executed"] = med(func(s *campaignSplit) float64 { return float64(len(s.PointWalls)) })
	l["runner.memo_hits"] = med(func(s *campaignSplit) float64 { return float64(s.MemoHits) })
	l["runner.worlds"] = med(func(s *campaignSplit) float64 { return float64(s.Worlds) })
	l["runner.sim_s"] = med(func(s *campaignSplit) float64 { return s.SimSeconds })
	l["runner.host_ms_per_world"] = med(func(s *campaignSplit) float64 {
		if s.StoredWorlds == 0 {
			return 0
		}
		return ms(s.Point) / float64(s.StoredWorlds)
	})
	l["runner.uncached_s"] = med(func(s *campaignSplit) float64 { return s.Uncached.Seconds() })
	l["runner.glue_s"] = med(func(s *campaignSplit) float64 { return s.Glue.Seconds() })
	l["cache.open_ms"] = med(func(s *campaignSplit) float64 { return ms(s.Open) })
	l["cache.loads"] = med(func(s *campaignSplit) float64 { return float64(s.Loads) })
	l["cache.load_s"] = med(func(s *campaignSplit) float64 { return s.Load.Seconds() })
	l["cache.load_p50_us"] = percentile(loads, 0.5)
	l["cache.hit_ratio"] = med(func(s *campaignSplit) float64 {
		if s.Loads == 0 {
			return 0
		}
		return float64(s.Hits) / float64(s.Loads)
	})
	l["cache.stores"] = med(func(s *campaignSplit) float64 { return float64(s.Stores) })
	l["cache.store_s"] = med(func(s *campaignSplit) float64 { return s.Store.Seconds() })
	l["cache.close_ms"] = med(func(s *campaignSplit) float64 { return ms(s.Close) })
	for _, c := range splits[0].Costs {
		id := c.ID
		l["runner.exp."+id+".wall_ms"] = med(func(s *campaignSplit) float64 {
			for _, c := range s.Costs {
				if c.ID == id {
					return c.WallMs
				}
			}
			return 0
		})
	}
	var b strings.Builder
	writeCostTable(&b, *splits[len(splits)/2])
	rep.costTable = b.String()
	for _, s := range splits {
		if s.Glue < 0 {
			rep.notes = append(rep.notes, fmt.Sprintf("negative glue %v: spans overlap", s.Glue))
		}
	}
}

// overheadRatio is the traced over the untraced median op wall.
func overheadRatio(ops []op) float64 {
	var tr, un []float64
	for _, o := range ops {
		if o.traced {
			tr = append(tr, ms(o.wall))
		} else {
			un = append(un, ms(o.wall))
		}
	}
	u := percentile(un, 0.5)
	if u == 0 {
		return 0
	}
	return percentile(tr, 0.5) / u
}

// coldPaper is the first `interference -all` a researcher runs: the
// golden campaign, serially, against an empty on-disk point cache.
func coldPaper(h *harness) (*report, error) {
	rep := &report{perOp: true, rssOps: h.rssOps(coldRSSOps), layers: map[string]float64{}}
	// Set-up is cheap here, so it is repeated and the median reported.
	for i := 0; i < 15; i++ {
		t0 := time.Now()
		if err := h.loadGoldens(); err != nil {
			return nil, err
		}
		rep.setups = append(rep.setups, time.Since(t0))
	}
	return h.campaigns(rep, "")
}

// warmReplay is the repeat verify: set-up fills a cache with one serial
// cold campaign, then each timed operation is a separate campaign
// (open, run, close) replaying it.
func warmReplay(h *harness) (*report, error) {
	rep := &report{perOp: true, rssOps: h.rssOps(warmRSSOps), layers: map[string]float64{}}
	t0 := time.Now()
	if err := h.loadGoldens(); err != nil {
		return nil, err
	}
	dir := filepath.Join(h.tmp, "warm-cache")
	if fill, _ := h.campaign(dir, false, false, nil, rep); fill.failed {
		return nil, fmt.Errorf("filling the cache failed: %v", rep.failures)
	}
	rep.setups = append(rep.setups, time.Since(t0))
	return h.campaigns(rep, dir)
}

// campaigns is the timed phase of cold-paper and warm-replay: campaigns
// back to back against the cache in dir, or against a fresh empty cache
// each when dir is "".
func (h *harness) campaigns(rep *report, dir string) (*report, error) {
	prof := &profiler{}
	var splits []*campaignSplit
	h.timed(rep, func(traced bool) op {
		cacheDir := dir
		if dir == "" {
			tmp, err := os.MkdirTemp(h.tmp, "cold-")
			if err != nil {
				rep.fail("temp dir: %v", err)
				return op{failed: true}
			}
			defer os.RemoveAll(tmp)
			cacheDir = filepath.Join(tmp, "cache")
		}
		o, s := h.campaign(cacheDir, true, traced, prof, rep)
		if s != nil {
			splits = append(splits, s)
		}
		return o
	})
	if !h.trace {
		return rep, nil
	}
	if prof.err != nil {
		return nil, prof.err
	}
	campaignLayers(rep, splits)
	prof.addTo(rep.layers, len(splits))
	rep.layers["trace.overhead_ratio"] = overheadRatio(rep.ops)
	return rep, nil
}
