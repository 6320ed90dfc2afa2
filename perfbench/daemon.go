package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/replica"
	"repro/internal/runner"
	"repro/internal/server"
)

// Daemon-mix serves campaigns from an in-process interfd on loopback:
// a cache dir plus a state dir (so the journal is on) and default
// shards, pre-filled by a serial local campaign. Two closed-loop
// clients submit through replica.Set, the CLI's -remote client.
const (
	daemonClients = 2
	// freshEvery puts one fresh-seed request in each block of this many
	// (about 5%); the rest ask for figures or the whole paper at seed 1.
	freshEvery = 20
	// allShare is the probability that a seed-1 request asks for the
	// whole paper rather than 1-4 figures. Nothing in the repository
	// documents how users split their requests, so this share and the
	// 1-4 figure count are assumptions; README.md gives each metric's
	// sensitivity to them.
	allShare = 0.25
	// traceWindow alternates untraced and traced windows in a traced
	// run, so both see the same daemon state.
	traceWindow = time.Second
)

// freshExps are cheap point-compiled experiments: a fresh-seed request
// computes on the shards and writes the cache and journal.
var freshExps = []string{"fabric-pingpong", "ext-overlap", "faults-overlap", "fig3", "ext-collectives"}

// request is one daemon-mix submission.
type request struct {
	exps  []string
	seed  int64
	fresh bool
}

// requestAt derives request i of the mix from the workload seed alone,
// so the same seed gives the same request sequence.
func (h *harness) requestAt(i int) request {
	block, pos := i/freshEvery, i%freshEvery
	rng := rand.New(rand.NewSource(h.seed*1_000_003 + int64(block)))
	freshPos := rng.Intn(freshEvery)
	var r float64
	var perm []int
	for j := 0; j <= pos; j++ { // every position draws the same amount
		r, perm = rng.Float64(), rng.Perm(len(h.exps))
	}
	if pos == freshPos {
		pool := freshExps
		if h.short {
			pool = shortExps[:3]
		}
		// Successive blocks take the fresh experiments in turn, in a
		// seed-derived order, so every seed leaks and computes the same.
		turn := rand.New(rand.NewSource(h.seed)).Perm(len(pool))
		return request{
			exps:  []string{pool[turn[block%len(pool)]]},
			seed:  h.seed*1_000_000 + int64(i) + 2,
			fresh: true,
		}
	}
	req := request{seed: goldenSeed}
	switch {
	case r < allShare && !h.short:
		req.exps = []string{"all"}
	case r < allShare:
		for _, e := range h.exps {
			req.exps = append(req.exps, e.ID)
		}
	default:
		for _, k := range perm[:1+perm[1]%4] {
			req.exps = append(req.exps, h.exps[k].ID)
		}
	}
	return req
}

// handlerTimes records, per client key, how long the daemon's handler
// took for that client's latest request. Each client waits for its
// reply before sending again, and the server finishes the handler
// before it completes the response, so the value read after Submit
// returns is that request's.
type handlerTimes struct {
	mu   sync.Mutex
	last map[string]time.Duration
}

func (t *handlerTimes) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		next.ServeHTTP(w, r)
		if r.URL.Path == "/campaign" {
			d := time.Since(t0)
			t.mu.Lock()
			t.last[r.Header.Get("X-API-Key")] = d
			t.mu.Unlock()
		}
	})
}

func (t *handlerTimes) get(key string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.last[key]
}

// daemonOp is one request's outcome, kept for verification and the
// traced split.
type daemonOp struct {
	op
	req           request
	err           error
	retried       int64
	handler       time.Duration
	cached, total int
	wallMs        float64 // CampaignResponse.WallMs
	execMs        float64 // summed WallMs of experiments not replayed from the journal
	deduped       bool
	fresh         string // a fresh-seed rendering awaiting its reference
}

func daemonMix(h *harness) (*report, error) {
	rep := &report{rssOps: h.rssOps(daemonRSSOps), layers: map[string]float64{}}
	t0 := time.Now()
	if err := h.loadGoldens(); err != nil {
		return nil, err
	}
	data := filepath.Join(h.tmp, "interfd")
	cacheDir := filepath.Join(data, "cache")
	if fill, _ := h.campaign(cacheDir, false, false, nil, rep); fill.failed {
		return nil, fmt.Errorf("filling the cache failed: %v", rep.failures)
	}
	srv, err := server.New(server.Config{CacheDir: cacheDir, StateDir: filepath.Join(data, "state")})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	times := &handlerTimes{last: map[string]time.Duration{}}
	hs := &http.Server{Handler: times.wrap(srv.Handler())}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx) // teardown: every result is already collected
		if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
			rep.fail("serving: %v", err)
		}
	}()
	url := "http://" + ln.Addr().String()
	sets := make([]*replica.Set, daemonClients)
	for c := range sets {
		sets[c] = replica.NewSet([]string{url}, replica.Options{Seed: h.seed + int64(c)})
	}
	rep.setups = append(rep.setups, time.Since(t0))

	// Timed phase: closed-loop clients until the deadline.
	prof := &profiler{}
	steal0, cpu0, rt0, m0 := stealSeconds(), cpuTime(), readRuntime(), srv.Metrics()
	start := time.Now()
	deadline := start.Add(h.seconds)
	// Short runs shrink the windows so they still hold traced requests.
	window := min(traceWindow, max(h.seconds/4, time.Millisecond))
	tracedAt := func(t time.Time) bool {
		return h.trace && int(t.Sub(start)/window)%2 == 1
	}
	stopWindows := make(chan struct{})
	windowsDone := make(chan struct{})
	go func() { // profiler windows
		defer close(windowsDone)
		if !h.trace {
			return
		}
		on := false
		for w := 1; ; w++ {
			select {
			case <-stopWindows:
				if on {
					prof.stop()
				}
				return
			case <-time.After(time.Until(start.Add(time.Duration(w) * window))):
				if on {
					prof.stop()
				} else {
					prof.start()
				}
				on = !on
			}
		}
	}()
	var next, done atomic.Int64
	perClient := make([][]daemonOp, daemonClients)
	var wg sync.WaitGroup
	for c := 0; c < daemonClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			key := fmt.Sprintf("client-%d", c)
			for time.Now().Before(deadline) || next.Load() < int64(rep.rssOps) {
				i := int(next.Add(1) - 1)
				req := h.requestAt(i)
				spec := server.CampaignSpec{Cluster: goldenCluster, Experiments: req.exps, Seed: req.seed, Runs: goldenRuns}
				before := sets[c].Retried()
				s := time.Now()
				resp, err := sets[c].Submit(spec, 0, key)
				e := time.Now()
				d := daemonOp{op: op{wall: e.Sub(s), traced: tracedAt(s)},
					req: req, err: err, retried: sets[c].Retried() - before,
					handler: times.get(key)}
				h.check(&d, resp, rep)
				if d.traced {
					h.tr.span(strings.Join(req.exps, ","), "request", tidClient+c, s, e, map[string]any{
						"seed": req.seed, "fresh": req.fresh, "handler_ms": ms(d.handler),
						"server_wall_ms": d.wallMs, "exec_ms": d.execMs, "failed": d.failed,
					})
				}
				perClient[c] = append(perClient[c], d)
				if done.Add(1) == int64(rep.rssOps) {
					rep.maxRSS = maxRSSMB() // read by the main goroutine after wg.Wait
				}
			}
		}(c)
	}
	wg.Wait()
	rep.elapsed = time.Since(start)
	close(stopWindows)
	<-windowsDone
	rep.steal = stealSeconds() - steal0
	rep.cpu = cpuTime() - cpu0
	rep.alloc = readRuntime().allocBytes - rt0.allocBytes
	m1 := srv.Metrics()

	var ops []daemonOp
	for _, c := range perClient {
		ops = append(ops, c...)
	}
	// Fresh-seed renderings are checked against an in-process run of the
	// same spec. The closed loop decides how many fresh requests a run
	// issues, so their references are computed here, after the timed
	// phase, rather than guessed in advance.
	refs := map[string]string{}
	for i := range ops {
		d := &ops[i]
		if d.req.fresh && !d.failed && d.fresh != h.reference(d.req.exps[0], d.req.seed, refs, rep) {
			d.failed = true
			rep.fail("request %v seed %d differs from its in-process reference", d.req.exps, d.req.seed)
		}
		rep.ops = append(rep.ops, d.op)
	}
	rep.kinds = requestKinds(ops)
	if prof.err != nil {
		return nil, prof.err
	}
	if h.trace {
		daemonLayers(rep, ops, m0, m1)
		traced := 0
		for _, o := range ops {
			if o.traced {
				traced++
			}
		}
		prof.addTo(rep.layers, traced)
		rep.layers["trace.overhead_ratio"] = overheadRatio(rep.ops)
	}
	return rep, nil
}

// check verifies one response as soon as it arrives, outside its
// latency: seed-1 renderings against the goldens. Fresh renderings are
// kept for checking after the timed phase; nothing else of the response
// is kept, so a long run does not hold every reply in memory.
func (h *harness) check(d *daemonOp, resp *server.CampaignResponse, rep *report) {
	if d.err == nil && d.retried > 0 {
		d.err = fmt.Errorf("retried %d times", d.retried) // a 503 or transport error
	}
	if d.err != nil {
		d.failed = true
		rep.fail("request %v: %v", d.req.exps, d.err)
		return
	}
	d.wallMs, d.deduped = resp.WallMs, resp.Deduped
	want := d.req.exps
	if len(want) == 1 && want[0] == "all" {
		want = nil
		for _, e := range h.exps {
			want = append(want, e.ID)
		}
	}
	if len(resp.Results) != len(want) {
		d.failed = true
		rep.fail("request %v: %d results for %d experiments", d.req.exps, len(resp.Results), len(want))
		return
	}
	for i, r := range resp.Results {
		d.total++
		if r.Cached {
			d.cached++
		} else {
			d.execMs += r.WallMs
		}
		if r.ID != want[i] || r.Error != "" {
			d.failed = true
			rep.fail("request %v seed %d: %s failed (%s)", d.req.exps, d.req.seed, r.ID, r.Error)
			continue
		}
		if d.req.fresh {
			d.fresh = r.Rendered
		} else if r.Rendered != h.goldens[r.ID] {
			d.failed = true
			rep.fail("request %v: %s differs from its golden", d.req.exps, r.ID)
		}
	}
}

// reference renders one experiment at a fresh seed in process, with no
// cache, as the oracle for the daemon's answer.
func (h *harness) reference(id string, seed int64, refs map[string]string, rep *report) string {
	key := fmt.Sprintf("%s/%d", id, seed)
	if r, ok := refs[key]; ok {
		return r
	}
	env := h.env
	env.Seed = seed
	var exp []core.Experiment
	for _, e := range h.exps {
		if e.ID == id {
			exp = append(exp, e)
		}
	}
	res := runner.Collect(runner.Run(env, exp, runner.Options{Workers: 1}))
	if len(res) != 1 || res[0].Err != nil {
		rep.fail("reference %s: %v", key, res)
		refs[key] = "\x00unavailable"
		return refs[key]
	}
	refs[key] = res[0].Rendered
	return refs[key]
}

// daemonLayers splits traced requests: client latency = handler time +
// HTTP overhead; handler time = runFn wall (CampaignResponse.WallMs) +
// admission, spec decode and response encode. The exec percentile is
// over requests that executed at least one experiment rather than
// replaying it from the journal.
func daemonLayers(rep *report, ops []daemonOp, m0, m1 server.Metrics) {
	var wall, exec, adm, overhead []float64
	var cached, total, deduped, n int
	for _, o := range ops {
		if !o.traced || o.err != nil {
			continue
		}
		n++
		wall = append(wall, o.wallMs)
		if o.cached < o.total {
			exec = append(exec, o.execMs)
		}
		adm = append(adm, ms(o.handler)-o.wallMs)
		overhead = append(overhead, ms(o.wall)-ms(o.handler))
		cached += o.cached
		total += o.total
		if o.deduped {
			deduped++
		}
	}
	l := rep.layers
	l["server.wall_p50_ms"] = percentile(wall, 0.5)
	l["server.exec_p50_ms"] = percentile(exec, 0.5)
	l["server.admission_p50_ms"] = percentile(adm, 0.5)
	l["http.overhead_p50_ms"] = percentile(overhead, 0.5)
	if total > 0 {
		l["server.journal_replay_ratio"] = float64(cached) / float64(total)
	}
	if n > 0 {
		l["server.dedup_ratio"] = float64(deduped) / float64(n)
	}
	hits := (m1.Cache.Hits + m1.Cache.MemoHits + m1.Cache.FlightHits) - (m0.Cache.Hits + m0.Cache.MemoHits + m0.Cache.FlightHits)
	if pts := m1.Cache.Points - m0.Cache.Points; pts > 0 {
		l["server.cache_hit_ratio"] = float64(hits) / float64(pts)
	}
}

// requestKinds summarises the mix for the record: how many requests of
// each kind a run sent and their median and mean latency, so the effect
// of the assumed mix on the end-to-end metrics can be read off any run.
func requestKinds(ops []daemonOp) map[string]any {
	walls := map[string][]float64{}
	for _, o := range ops {
		kind := "figures"
		switch {
		case o.req.fresh:
			kind = "fresh"
		case len(o.req.exps) == 1 && o.req.exps[0] == "all":
			kind = "all"
		}
		walls[kind] = append(walls[kind], ms(o.wall))
	}
	out := map[string]any{}
	for kind, w := range walls {
		sum := 0.0
		for _, x := range w {
			sum += x
		}
		out[kind] = map[string]float64{"count": float64(len(w)), "p50_ms": percentile(w, 0.5), "mean_ms": sum / float64(len(w))}
	}
	return out
}
