package interference

import (
	"fmt"
	"io"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/topology"
)

// Config selects the simulated cluster and the experiment repetitions.
type Config struct {
	// Cluster names a machine preset: "henri" (default), "bora",
	// "billy" or "pyxis" — the four clusters of the paper (§2.2).
	Cluster string
	// Seed makes the simulation reproducible; 0 means 1.
	Seed int64
	// Runs is the number of repetitions used for median/decile bands;
	// 0 means 3.
	Runs int
	// Noiseless disables the per-cluster measurement jitter, for exact
	// reproducibility of single numbers.
	Noiseless bool
	// SpecFile, when set, loads the machine model from a JSON spec file
	// instead of a named preset (see `topo -json` for the format).
	SpecFile string
}

func (c Config) env() (bench.Env, error) {
	name := c.Cluster
	if name == "" {
		name = "henri"
	}
	seed := c.Seed
	if seed == 0 {
		seed = 1
	}
	runs := c.Runs
	if runs == 0 {
		runs = 3
	}
	env, err := core.Env(name, seed, runs)
	if err != nil {
		return bench.Env{}, err
	}
	if c.SpecFile != "" {
		spec, err := topology.LoadSpecFile(c.SpecFile)
		if err != nil {
			return bench.Env{}, err
		}
		env.Spec = spec
	}
	if c.Noiseless {
		env.Spec.NIC.NoiseFrac = 0
	}
	return env, nil
}

// Clusters lists the available machine presets.
func Clusters() []string { return []string{"henri", "bora", "billy", "pyxis"} }

// PingPongResult is the NetPIPE metric pair of §2.1.
type PingPongResult struct {
	// LatencyMicros is the median half-round-trip time in microseconds.
	LatencyMicros float64
	// P10Micros/P90Micros delimit the first/last decile band.
	P10Micros, P90Micros float64
	// BandwidthMBps is size/latency in MB/s.
	BandwidthMBps float64
}

// PingPong measures a ping-pong of the given message size between two
// nodes of the configured cluster, with no computation running.
func PingPong(cfg Config, size int64) (PingPongResult, error) {
	if size < 0 {
		return PingPongResult{}, fmt.Errorf("interference: negative message size %d", size)
	}
	env, err := cfg.env()
	if err != nil {
		return PingPongResult{}, err
	}
	comm := bench.LatencyConfig()
	comm.Size = size
	if size >= 1<<20 {
		comm.Iters, comm.Warmup = 6, 2
	}
	r := bench.Interference(env, comm, bench.ComputeConfig{})
	lat := r.CommAlone
	res := PingPongResult{
		LatencyMicros: lat.Median * 1e6,
		P10Micros:     lat.P10 * 1e6,
		P90Micros:     lat.P90 * 1e6,
	}
	if lat.Median > 0 {
		res.BandwidthMBps = float64(size) / lat.Median / 1e6
	}
	return res, nil
}

// Workload names a computation kernel for interference studies.
type Workload string

// The workloads of the paper's benchmarks.
const (
	// CPUBound is the naive prime-counting kernel (§3.2): no memory
	// traffic at all.
	CPUBound Workload = "cpu"
	// AVX512Bound is the weak-scaling AVX-512 FMA kernel (§3.3).
	AVX512Bound Workload = "avx512"
	// MemoryBound is STREAM TRIAD (§4): maximal memory pressure.
	MemoryBound Workload = "stream"
	// Copy is STREAM COPY (§4).
	Copy Workload = "copy"
)

// InterferenceOptions configures a side-by-side measurement.
type InterferenceOptions struct {
	// Workload selects the compute kernel; default MemoryBound.
	Workload Workload
	// Cursor sets the TriadX repetition count instead of a named
	// workload when > 0 (arithmetic intensity = Cursor/12 flop/B, §4.5).
	Cursor int
	// Cores is the number of computing cores per node; default 5.
	Cores int
	// MessageSize is the ping-pong size; default 4 (latency benchmark).
	MessageSize int64
	// DataNearNIC places computation and communication memory on the
	// NIC's NUMA node (the paper's Fig 4 setup) or the farthest one.
	DataNearNIC bool
	// CommThreadNearNIC binds the communication thread next to the NIC
	// or to the last core of the farthest NUMA node (the default).
	CommThreadNearNIC bool
}

// InterferenceSummary reports the three-step protocol (§2.1) outcome.
type InterferenceSummary struct {
	// LatencyAloneMicros / LatencyTogetherMicros are median half-RTTs.
	LatencyAloneMicros, LatencyTogetherMicros float64
	// BandwidthAloneMBps / BandwidthTogetherMBps are the NetPIPE
	// bandwidths (only meaningful for large MessageSize).
	BandwidthAloneMBps, BandwidthTogetherMBps float64
	// ComputeAloneGBps / ComputeTogetherGBps are per-core memory
	// bandwidths of the kernel (0 for CPU-bound kernels).
	ComputeAloneGBps, ComputeTogetherGBps float64
	// ComputeAloneMs / ComputeTogetherMs are per-iteration times.
	ComputeAloneMs, ComputeTogetherMs float64
}

// Interfere runs computation and communication side by side per the
// paper's protocol and reports both sides' performance, alone and
// together.
func Interfere(cfg Config, opts InterferenceOptions) (InterferenceSummary, error) {
	env, err := cfg.env()
	if err != nil {
		return InterferenceSummary{}, err
	}
	spec := env.Spec
	dataNUMA := spec.NUMANodes() - 1
	if opts.DataNearNIC {
		dataNUMA = spec.NIC.NUMA
	}
	commNUMA := spec.NUMANodes() - 1
	if opts.CommThreadNearNIC {
		commNUMA = spec.NIC.NUMA
	}
	cores := opts.Cores
	if cores == 0 {
		cores = 5
	}
	if cores < 0 || cores > spec.Cores()-1 {
		return InterferenceSummary{}, fmt.Errorf("interference: %d computing cores out of range [0,%d]", cores, spec.Cores()-1)
	}
	var slice machine.ComputeSpec
	switch {
	case opts.Cursor > 0:
		slice = kernels.TriadX(1<<20, opts.Cursor, dataNUMA)
	case opts.Workload == CPUBound:
		slice = kernels.PrimeCountDefault()
	case opts.Workload == AVX512Bound:
		slice = kernels.AVX512Default()
	case opts.Workload == Copy:
		slice = kernels.StreamCopy(kernels.DefaultStreamElems, dataNUMA)
	case opts.Workload == MemoryBound, opts.Workload == "":
		slice = kernels.StreamTriad(kernels.DefaultStreamElems, dataNUMA)
	default:
		return InterferenceSummary{}, fmt.Errorf("interference: unknown workload %q", opts.Workload)
	}

	size := opts.MessageSize
	if size == 0 {
		size = 4
	}
	comm := bench.CommConfig{
		CommCore: spec.LastCoreOfNUMA(commNUMA),
		BufNUMA:  dataNUMA,
		Size:     size,
		Iters:    20,
		Warmup:   4,
	}
	if size >= 1<<20 {
		comm.Iters, comm.Warmup = 6, 2
	}
	r := bench.Interference(env, comm, bench.ComputeConfig{Slice: slice, Cores: cores})
	return InterferenceSummary{
		LatencyAloneMicros:    r.CommAlone.Median * 1e6,
		LatencyTogetherMicros: r.CommTogether.Median * 1e6,
		BandwidthAloneMBps:    r.BandwidthAlone() / 1e6,
		BandwidthTogetherMBps: r.BandwidthTogether() / 1e6,
		ComputeAloneGBps:      r.ComputeAlone.Median / 1e9,
		ComputeTogetherGBps:   r.ComputeTogether.Median / 1e9,
		ComputeAloneMs:        r.ComputeSecsAlone.Median * 1e3,
		ComputeTogetherMs:     r.ComputeSecsTogether.Median * 1e3,
	}, nil
}

// Experiment identifies one reproducible table/figure of the paper.
type Experiment struct {
	ID    string
	Title string
}

// Experiments lists every reproducible table and figure.
func Experiments() []Experiment {
	var out []Experiment
	for _, e := range core.Experiments() {
		out = append(out, Experiment{ID: e.ID, Title: e.Title})
	}
	return out
}

// Run executes the named experiment and writes its result tables to w
// as aligned ASCII.
func Run(cfg Config, id string, w io.Writer) error { return run(cfg, id, "ascii", w) }

// RunCSV executes the named experiment and writes its result tables to
// w as CSV (one block per table, `# title` comment lines between).
func RunCSV(cfg Config, id string, w io.Writer) error { return run(cfg, id, "csv", w) }

func run(cfg Config, id, format string, w io.Writer) error {
	env, err := cfg.env()
	if err != nil {
		return err
	}
	e, ok := core.ByID(id)
	if !ok {
		return fmt.Errorf("interference: unknown experiment %q (see Experiments())", id)
	}
	// An isolated scope, as the campaign runner uses, so the worlds the
	// experiment builds are shut down once it returns.
	iso := env.Isolated()
	defer iso.Release()
	return core.WriteTables(w, format, e.Run(iso))
}

// ClusterSpec returns a human-readable description of a preset.
func ClusterSpec(name string) (string, error) {
	spec := topology.Preset(name)
	if spec == nil {
		return "", fmt.Errorf("interference: unknown cluster %q", name)
	}
	return fmt.Sprintf(
		"%s: %d sockets × %d NUMA × %d cores (%d total), core %.1f–%.1f GHz, "+
			"uncore %.1f–%.1f GHz, %v GB/s per memory controller, NIC on NUMA %d at %v GB/s",
		spec.Name, spec.Sockets, spec.NUMAPerSocket, spec.CoresPerNUMA, spec.Cores(),
		spec.Freq.CoreMin, spec.Freq.CoreBase, spec.Freq.UncoreMin, spec.Freq.UncoreMax,
		spec.Mem.CtrlGBs, spec.NIC.NUMA, spec.NIC.WireGBs), nil
}
