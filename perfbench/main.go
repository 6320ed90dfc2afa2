// Command perfbench is the repository's benchmark: one process that
// drives three workloads through the public APIs (runner.Run,
// runner.OpenPointCache, server.New/Handler, replica.Set.Submit),
// checks every output against the golden files in results/, and prints
// one JSON result line. See README.md in this directory.
//
//	perfbench --workload cold-paper --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer ledger instead, from a run that
// alternates untraced and traced operations.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metricDef struct{ name, unit string }

// endToEnd lists the metrics of an untraced run, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"campaign_s", "s"},
	{"campaigns_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"cpu_s", "s"},
	{"alloc_mb", "MB"},
	{"max_rss_mb", "MB"},
	{"setup_s", "s"},
}

// selfBuckets are the profile buckets reported as <bucket>.self_s.
var selfBuckets = []string{
	"sim", "fluid", "freq", "machine", "mpi", "net", "taskrt", "kernels",
	"runtime_sched", "runtime_gc", "encoding_json", "net_http",
	"server", "replica", "runner", "bench", "other",
}

// perLayer lists the metrics of a traced run; runner.exp.<id>.wall_ms
// follows for every registered experiment.
var perLayer = []metricDef{
	{"bench.point_p50_ms", "ms"},
	{"bench.point_p90_ms", "ms"},
	{"bench.point_s", "s"},
	{"bench.points_executed", "count"},
	{"runner.memo_hits", "count"},
	{"runner.worlds", "count"},
	{"runner.sim_s", "s"},
	{"runner.host_ms_per_world", "ms"},
	{"runner.uncached_s", "s"},
	{"runner.glue_s", "s"},
	{"cache.open_ms", "ms"},
	{"cache.loads", "count"},
	{"cache.load_s", "s"},
	{"cache.load_p50_us", "us"},
	{"cache.hit_ratio", "ratio"},
	{"cache.stores", "count"},
	{"cache.store_s", "s"},
	{"cache.close_ms", "ms"},
	{"server.wall_p50_ms", "ms"},
	{"server.exec_p50_ms", "ms"},
	{"server.admission_p50_ms", "ms"},
	{"http.overhead_p50_ms", "ms"},
	{"server.journal_replay_ratio", "ratio"},
	{"server.dedup_ratio", "ratio"},
	{"server.cache_hit_ratio", "ratio"},
	{"runtime.gc_cycles", "count"},
	{"runtime.sched_wait_p50_us", "us"},
	{"profile.total_s", "s"},
	{"trace.overhead_ratio", "ratio"},
}

func perLayerDefs() []metricDef {
	defs := append([]metricDef(nil), perLayer...)
	for _, b := range selfBuckets {
		defs = append(defs, metricDef{b + ".self_s", "s"})
	}
	for _, e := range core.Experiments() {
		defs = append(defs, metricDef{"runner.exp." + e.ID + ".wall_ms", "ms"})
	}
	return defs
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "cold-paper, warm-replay or daemon-mix")
		seed     = fs.Int64("seed", 1, "workload seed: orders daemon-mix requests and picks its fresh seeds")
		seconds  = fs.Float64("seconds", 20, "length of the timed phase")
		traced   = fs.Int("trace", 0, "0 = end-to-end metrics; 1 = per-layer ledger from a traced run")
		root     = fs.String("root", ".", "repository checkout holding the results/ goldens")
		out      = fs.String("out", ".bench_build/perfbench", "directory for run records, traces and temporary state")
		short    = fs.Bool("short", false, "run a few cheap experiments instead of the paper (harness tests)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if *seconds < 0 || math.IsNaN(*seconds) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be non-negative")
		return 2
	}
	wl, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown --workload %q (want cold-paper, warm-replay or daemon-mix)\n", *workload)
		return 2
	}
	h := &harness{
		root:    *root,
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *traced == 1,
		short:   *short,
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	tmp, err := os.MkdirTemp(*out, "tmp-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	h.tmp = tmp
	defer os.RemoveAll(tmp)
	if h.trace {
		h.tr = newTracer()
	}

	rep, err := wl(h)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	res := result{Attempted: len(rep.ops), Metrics: map[string]metric{}}
	for _, o := range rep.ops {
		if o.failed {
			res.Failed++
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if h.trace {
		for _, d := range perLayerDefs() {
			res.Metrics[d.name] = metric{rep.layers[d.name], d.unit}
		}
	} else {
		m := rep.endToEnd()
		for _, d := range endToEnd {
			res.Metrics[d.name] = metric{m[d.name], d.unit}
		}
	}

	base := filepath.Join(*out, fmt.Sprintf("%s-seed%d-trace%d", *workload, *seed, *traced))
	rec := rep.record(h, *workload)
	if h.trace {
		if err := h.tr.writeFile(base + ".trace.json"); err != nil {
			fmt.Fprintln(stderr, "perfbench: writing trace:", err)
		} else {
			rec["trace_file"] = base + ".trace.json"
		}
		if rep.costTable != "" {
			if err := os.WriteFile(base+".costs.txt", []byte(rep.costTable), 0o644); err != nil {
				fmt.Fprintln(stderr, "perfbench: writing cost table:", err)
			}
			fmt.Fprint(stderr, rep.costTable)
		}
	}
	recJSON, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := os.WriteFile(base+".record.json", append(recJSON, '\n'), 0o644); err != nil {
		fmt.Fprintln(stderr, "perfbench: writing record:", err)
	}
	fmt.Fprintf(stdout, "record %s\n", recJSON)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// endToEnd derives the untraced metrics from the timed operations.
func (r *report) endToEnd() map[string]float64 {
	walls := make([]float64, len(r.ops))
	for i, o := range r.ops {
		walls[i] = ms(o.wall)
	}
	m := map[string]float64{
		"campaign_s":      percentile(walls, 0.5) / 1e3,
		"campaigns_per_s": float64(len(r.ops)) / r.elapsed.Seconds(),
		"latency_p50_ms":  percentile(walls, 0.50),
		"latency_p90_ms":  percentile(walls, 0.90),
		"latency_p99_ms":  percentile(walls, 0.99),
		"max_rss_mb":      r.maxRSS,
	}
	setups := make([]float64, len(r.setups))
	for i, s := range r.setups {
		setups[i] = s.Seconds()
	}
	m["setup_s"] = percentile(setups, 0.5)
	if r.perOp {
		cpu := make([]float64, len(r.ops))
		alloc := make([]float64, len(r.ops))
		for i, o := range r.ops {
			cpu[i], alloc[i] = o.cpu.Seconds(), float64(o.alloc)/1e6
		}
		m["cpu_s"], m["alloc_mb"] = percentile(cpu, 0.5), percentile(alloc, 0.5)
	} else {
		n := float64(len(r.ops))
		m["cpu_s"], m["alloc_mb"] = r.cpu.Seconds()/n, float64(r.alloc)/1e6/n
	}
	return m
}

// percentile returns the p-quantile of xs, interpolated as
// stats.Quantile does (0 for no samples).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return stats.Quantile(s, p)
}

// tailNote states, for the record, how many samples lie beyond each
// reported tail percentile.
func tailNote(n int) string {
	var parts []string
	for _, p := range []float64{0.90, 0.99} {
		beyond := 0
		if n > 0 {
			beyond = n - 1 - int(p*float64(n-1))
		}
		parts = append(parts, fmt.Sprintf("p%.0f has %d samples beyond it", p*100, beyond))
	}
	return strings.Join(parts, "; ")
}
