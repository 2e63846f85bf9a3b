// Command hostbench is edacloud's host-clock benchmark. It sets up one
// workload from a seed, runs its operation through the public APIs of
// the internal packages for a fixed time, checks every operation's
// simulated outputs, and prints a human-readable report followed by
// one JSON line: the end-to-end metrics, or with --trace 1 the
// per-layer metrics derived from spans the benchmark records around
// its calls into each layer. Run it from the repository root:
//
//	bash hostbench/run.sh --workload flow --seed 1 --seconds 20 --trace 0
//
// README.md maps each layer to its metrics and workloads and records
// the baseline.
package main

import (
	"bufio"
	"bytes"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

// defaultSeed is the seed whose simulated outputs reference.json pins.
const defaultSeed = 1

// A run sets its workload up at least minSetups times, and repeats
// until setupBudget has passed or maxSetups ran, so that setups of a
// few milliseconds still yield a steady median for setup_s. The first
// set-up of a run is the slowest, as the heap grows from nothing; five
// keep it out of the median.
const (
	minSetups   = 5
	maxSetups   = 200
	setupBudget = time.Second
)

// size fixes the inputs of every workload.
type size struct {
	flowScale      float64 // ibex evaluation-design scale
	synthBench     string
	synthScale     float64
	serveJobs      int // trace length
	predictBenches int // benchmarks labeled for the predictor
	predictScale   float64
	epochs         int
}

// fullSize is what the benchmark measures. Routing cost grows faster
// than linearly in the flow scale, so ibex stays at half size.
var fullSize = size{
	flowScale:  0.5,
	synthBench: "adder", synthScale: 100,
	serveJobs:      3000,
	predictBenches: 8, predictScale: 0.06, epochs: 5,
}

// result is one operation's outcome: the digest of its simulated
// outputs, what it took, and the wall latency of each request inside
// it (serve's admissions; nil elsewhere).
type result struct {
	digest    any
	took      cost
	latencies []float64
}

// instance is a set-up workload.
type instance interface {
	// op runs one operation; tr records spans, and nil runs untraced.
	op(tr *tracer) (result, error)
	// calibrate runs the traced run's extra measurement around a
	// traced operation's result, such as the same work with probes or
	// workers changed; it fails if the outputs differ from ref's.
	calibrate(tr *tracer, ref result) error
	// layers derives the per-layer metrics from the recorded spans and
	// the last traced operation's result.
	layers(tr *tracer, last result) map[string]float64
}

type workload struct {
	name string
	// opName names the operation's wall time in the human-readable
	// report, and latName prefixes its request latencies.
	opName, latName string
	setup           func(seed int64, sz size) (instance, error)
}

var workloads = []workload{
	{name: "flow", opName: "flow_s", setup: setupFlow},
	{name: "synth", opName: "synth_s", setup: setupSynth},
	{name: "serve", opName: "replay_s", latName: "admit", setup: setupServe},
	{name: "predict", opName: "train_s", setup: setupPredict},
}

type metricDef struct{ name, unit string }

// endToEnd are the untraced run's metrics; every workload reports each.
// The times are CPU seconds (see stopwatch); alloc_mib is the heap an
// operation allocates.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_cpu_s", "s"},
	{"alloc_mib", "MiB"},
}

// perLayer are the traced run's metrics. A workload reports 0 for a
// layer it does not run.
var perLayer = []metricDef{
	{"synth.stage_s", "s"},
	{"place.stage_s", "s"},
	{"place.alloc_mib", "MiB"},
	{"route.stage_s", "s"},
	{"route.alloc_mib", "MiB"},
	{"sta.stage_s", "s"},
	{"perf.probe_s", "s"},
	{"perf.probe_share", "share"},
	{"perf.sim_minstr_per_s", "Minstr/s"},
	{"perf.sim_instrs", "count"},
	{"route.rrr_iters", "count"},
	{"route.connections", "count"},
	{"aig.read_s", "s"},
	{"synth.balance_s", "s"},
	{"synth.rewrite_s", "s"},
	{"synth.refactor_s", "s"},
	{"synth.map_s", "s"},
	{"synth.alloc_mib", "MiB"},
	{"par.synth_speedup", "x"},
	{"serve.submit_p50_ms", "ms"},
	{"serve.submit_p99_ms", "ms"},
	{"serve.advance_p50_ms", "ms"},
	{"serve.advance_p99_ms", "ms"},
	{"serve.drain_s", "s"},
	{"serve.http_share", "share"},
	{"serve.alloc_mib", "MiB"},
	{"serve.replans", "count"},
	{"serve.adopt_ratio", "share"},
	{"serve.admitted", "count"},
	{"serve.rejected", "count"},
	{"gcn.forward_ms", "ms"},
	{"gcn.alloc_mib", "MiB"},
	{"core.abs_pct_err", "%"},
	{"trace.overhead_s", "s"},
}

//go:embed reference.json
var referenceJSON []byte

// references maps each workload to the digest its operation produces
// at defaultSeed and fullSize.
func references() (map[string]json.RawMessage, error) {
	var refs map[string]json.RawMessage
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	for name, raw := range refs {
		var buf bytes.Buffer
		if err := json.Compact(&buf, raw); err != nil {
			return nil, fmt.Errorf("reference.json: %s: %w", name, err)
		}
		refs[name] = buf.Bytes()
	}
	return refs, nil
}

type config struct {
	workload workload
	seed     int64
	duration time.Duration
	trace    bool
	size     size
	// reference is the digest every operation must produce; nil checks
	// only the workload's invariants and that all operations agree.
	reference json.RawMessage
	log       io.Writer // failed operations are reported here
}

type outcome struct {
	attempted, failed int
	// digest is the first successful operation's digest.
	digest  json.RawMessage
	metrics map[string]float64
	lines   []string
	tracer  *tracer
}

// bench sets the workload up, measures it for cfg.duration (at least
// one operation) and derives the metrics.
func bench(cfg config) (*outcome, error) {
	var setups, setupWalls []float64
	var inst instance
	for spent := 0.0; len(setups) < minSetups || (spent < setupBudget.Seconds() && len(setups) < maxSetups); {
		runtime.GC()
		watch := startWatch()
		in, err := cfg.workload.setup(cfg.seed, cfg.size)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", cfg.workload.name, err)
		}
		took := watch.elapsed()
		setups = append(setups, took.cpu)
		setupWalls = append(setupWalls, took.wall)
		spent += took.wall
		inst = in
	}

	out := &outcome{metrics: map[string]float64{}}
	want := cfg.reference
	// check counts one attempted operation and reports whether it
	// succeeded with the expected digest.
	check := func(r result, err error) bool {
		out.attempted++
		if err == nil {
			var got []byte
			got, err = json.Marshal(r.digest)
			switch {
			case err != nil:
			case want == nil:
				want = got
			case !bytes.Equal(got, want):
				err = fmt.Errorf("digest %s, want %s", got, want)
			}
			if err == nil && out.digest == nil {
				out.digest = got
			}
		}
		if err != nil {
			out.failed++
			fmt.Fprintf(cfg.log, "hostbench: %s operation %d failed: %v\n", cfg.workload.name, out.attempted, err)
			return false
		}
		return true
	}

	deadline := time.Now().Add(cfg.duration)
	if !cfg.trace {
		var secs, cpus, allocs, peaks, lats []float64
		var hs heapSampler
		for out.attempted == 0 || time.Now().Before(deadline) {
			runtime.GC()
			hs.start()
			r, err := inst.op(nil)
			peak := hs.stop()
			if check(r, err) {
				secs = append(secs, r.took.wall)
				cpus = append(cpus, r.took.cpu)
				allocs = append(allocs, r.took.allocMiB)
				peaks = append(peaks, peak)
				lats = append(lats, r.latencies...)
			}
		}
		out.metrics["setup_s"] = median(setups)
		out.metrics["op_cpu_s"] = median(cpus)
		out.metrics["alloc_mib"] = median(allocs)
		out.addLine("setup_s", setups, "s")
		out.addLine("setup_wall_s", setupWalls, "s")
		out.addLine("op_cpu_s", cpus, "s")
		out.lines = append(out.lines, fmt.Sprintf("%-22s %.4f", "samples", cpus))
		out.addLine(cfg.workload.opName, secs, "s")
		out.lines = append(out.lines, fmt.Sprintf("%-22s %.4f", "samples", secs))
		out.addLine("alloc_mib", allocs, "MiB")
		out.addLine("peak_heap_mib", peaks, "MiB")
		if name := cfg.workload.latName; name != "" {
			for _, q := range []struct {
				name string
				q    float64
			}{{"_p50_ms", 0.5}, {"_p99_ms", 0.99}} {
				out.lines = append(out.lines, fmt.Sprintf("%-22s %.4f ms   (%d requests)", name+q.name, 1e3*quantile(lats, q.q), len(lats)))
			}
		}
	} else {
		tr := newTracer()
		out.tracer = tr
		var plain, traced []float64
		var last result
		for out.attempted == 0 || time.Now().Before(deadline) {
			runtime.GC()
			if r, err := inst.op(nil); check(r, err) {
				plain = append(plain, r.took.cpu)
			}
			runtime.GC()
			tr.nextOp()
			r, err := inst.op(tr)
			if !check(r, err) {
				continue
			}
			traced = append(traced, r.took.cpu)
			last = r
			runtime.GC()
			tr.nextOp()
			check(r, inst.calibrate(tr, r))
		}
		for _, m := range perLayer {
			out.metrics[m.name] = 0
		}
		for name, v := range inst.layers(tr, last) {
			out.metrics[name] = v
		}
		out.metrics["trace.overhead_s"] = median(traced) - median(plain)
		out.addLine("traced op_cpu_s", traced, "s")
		out.addLine("untraced op_cpu_s", plain, "s")
		for _, m := range perLayer {
			out.lines = append(out.lines, fmt.Sprintf("%-22s %.6g %s", m.name, out.metrics[m.name], m.unit))
		}
	}
	out.lines = append(out.lines, fmt.Sprintf("%-22s %.4f   (%d of %d operations)", "failed_frac",
		float64(out.failed)/float64(out.attempted), out.failed, out.attempted))
	return out, nil
}

// addLine reports a sample set as its median and quartiles.
func (o *outcome) addLine(name string, xs []float64, unit string) {
	o.lines = append(o.lines, fmt.Sprintf("%-22s %.4f %s   q1 %.4f  q3 %.4f   (n=%d)",
		name, median(xs), unit, quantile(xs, 0.25), quantile(xs, 0.75), len(xs)))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// summarize is the result line: the run's metrics, each with its unit.
// A metric with no sample, because every operation failed, reads 0.
func (o *outcome) summarize(trace bool) summary {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	s := summary{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	for _, m := range defs {
		v := o.metrics[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		s.Metrics[m.name] = metricValue{v, m.unit}
	}
	return s
}

func main() {
	os.Exit(run(os.Args[1:], fullSize, os.Stdout, os.Stderr))
}

// run is the command: it parses args, benchmarks the workload at size
// sz and prints the report, and returns the exit code.
func run(args []string, sz size, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hostbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: flow, synth, serve or predict")
	seed := fs.Int64("seed", defaultSeed, "input seed; outputs are checked against reference.json at the default seed")
	seconds := fs.Float64("seconds", 10, "measurement time; at least one operation runs")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	spans := fs.String("spans", "", "with --trace 1, write the spans here as JSON lines")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || (*trace != 0 && *trace != 1) || *seconds < 0 {
		fmt.Fprintf(stderr, "hostbench: need --workload flow|synth|serve|predict, --trace 0|1 and --seconds >= 0\n")
		return 2
	}
	cfg := config{
		workload: *w, seed: *seed, trace: *trace == 1, size: sz, log: stderr,
		duration: time.Duration(*seconds * float64(time.Second)),
	}
	if *seed == defaultSeed {
		refs, err := references()
		if err != nil {
			fmt.Fprintf(stderr, "hostbench: %v\n", err)
			return 1
		}
		if cfg.reference = refs[w.name]; cfg.reference == nil {
			fmt.Fprintf(stderr, "hostbench: reference.json has no %s digest\n", w.name)
			return 1
		}
	}

	fmt.Fprintf(stdout, "# hostbench workload=%s seed=%d seconds=%g trace=%d nproc=%d gomaxprocs=%d go=%s commit=%s\n",
		w.name, *seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), sourceStamp("."))
	out, err := bench(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "hostbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, strings.Join(out.lines, "\n"))
	if cfg.trace && *spans != "" {
		if err := writeSpans(*spans, out.tracer); err != nil {
			fmt.Fprintf(stderr, "hostbench: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(out.summarize(cfg.trace))
	if err != nil {
		fmt.Fprintf(stderr, "hostbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func writeSpans(path string, tr *tracer) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, f.Close()) }()
	bw := bufio.NewWriter(f)
	if err := tr.writeJSON(bw); err != nil {
		return err
	}
	return bw.Flush()
}
