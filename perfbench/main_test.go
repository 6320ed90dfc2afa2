package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the subset of BENCHMARK.json the tests check.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// runHarness runs the benchmark in process and returns its exit code and
// parsed result line.
func runHarness(t *testing.T, args ...string) (int, result, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append([]string{"--out", t.TempDir()}, args...)
	code := run(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if code == 0 {
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("last stdout line is not a result: %v\n%s", err, stdout.String())
		}
	}
	return code, res, stderr.String()
}

// TestShortWorkloadsEmitEveryMetric runs a short mode of each workload,
// untraced and traced, and checks that the result names exactly the
// metrics BENCHMARK.json declares, each with its declared unit.
func TestShortWorkloadsEmitEveryMetric(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				code, res, stderr := runHarness(t, "--workload", w.Name, "--seed", "7", "--seconds", "0.3",
					"--trace", trace, "--short", "--root", "..")
				if code != 0 {
					t.Fatalf("exit %d:\n%s", code, stderr)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, stderr)
				}
				want := map[string]string{}
				for _, m := range bf.EndToEnd {
					if trace == "0" {
						want[m.Name] = m.Unit
					}
				}
				for _, m := range bf.PerLayer {
					if trace == "1" {
						want[m.Name] = m.Unit
					}
				}
				for name, unit := range want {
					got, ok := res.Metrics[name]
					if !ok {
						t.Errorf("metric %s missing", name)
					} else if got.Unit != unit {
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", name, got.Unit, unit)
					}
				}
				for name := range res.Metrics {
					if _, ok := want[name]; !ok {
						t.Errorf("metric %s is not declared in BENCHMARK.json", name)
					}
				}
				if trace == "1" {
					checkLedger(t, res.Metrics)
				}
			})
		}
	}
}

// checkLedger checks the traced run's accounting: the module self times
// add up to the profile's total, which the decoder counts apart from
// the buckets (sample count times period), and the campaign split
// leaves a non-negative glue remainder (spans do not overlap).
func checkLedger(t *testing.T, m map[string]metric) {
	t.Helper()
	sum := 0.0
	for _, b := range selfBuckets {
		sum += m[b+".self_s"].Value
	}
	if total := m["profile.total_s"].Value; math.Abs(sum-total) > 1e-9*max(1, total) {
		t.Errorf("module self times sum to %g, profile total is %g", sum, total)
	}
	if g := m["runner.glue_s"].Value; g < 0 {
		t.Errorf("runner.glue_s = %g: spans overlap", g)
	}
}

// TestCorruptGoldenIsFailedOperation checks that a golden that no
// longer matches the program's output is counted as a failed
// operation in a result, not a crash.
func TestCorruptGoldenIsFailedOperation(t *testing.T) {
	root := t.TempDir()
	results := filepath.Join(root, "results")
	if err := os.Mkdir(results, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, id := range shortExps {
		name := id + "-henri.txt"
		data, err := os.ReadFile(filepath.Join("..", "results", name))
		if err != nil {
			t.Fatal(err)
		}
		if id == "fig3" {
			data = append(data, "corrupted\n"...)
		}
		if err := os.WriteFile(filepath.Join(results, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range []string{"cold-paper", "warm-replay", "daemon-mix"} {
		t.Run(w, func(t *testing.T) {
			code, res, stderr := runHarness(t, "--workload", w, "--seconds", "0.2", "--short", "--root", root)
			if code != 0 {
				t.Fatalf("exit %d:\n%s", code, stderr)
			}
			if res.Correct || res.Failed == 0 || res.Failed > res.Attempted {
				t.Fatalf("correct=%v attempted=%d failed=%d, want failed operations", res.Correct, res.Attempted, res.Failed)
			}
		})
	}
}

// TestProfileBucketsCoverEverySample profiles a CPU-bound loop and
// checks that the buckets account for the whole profile.
func TestProfileBucketsCoverEverySample(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := 0.0
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	pprof.StopCPUProfile()
	buckets, total, err := attributeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if total <= 0 {
		t.Fatalf("profile total %g after 300ms of CPU work (x=%g)", total, x)
	}
	sum := 0.0
	for _, v := range buckets {
		sum += v
	}
	if math.Abs(sum-total) > 1e-9*total {
		t.Errorf("buckets sum to %g s, profile total is %g s", sum, total)
	}
}

func TestClassify(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/fluid.(*Model).resolve":  "fluid",
		"repro/internal/sim.(*Proc).loop":        "sim",
		"runtime.chanrecv":                       "runtime_sched",
		"runtime.gcBgMarkWorker":                 "runtime_gc",
		"runtime.scanobject":                     "runtime_gc",
		"encoding/json.(*encodeState).marshal":   "encoding_json",
		"net/http.(*conn).serve":                 "net_http",
		"repro/internal/net.(*Network).Transfer": "net",
		"runtime.mallocgc":                       "",
		"main.run":                               "",
	} {
		if got := classify(fn); got != want {
			t.Errorf("classify(%q) = %q, want %q", fn, got, want)
		}
	}
}
