package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite reference.json from full-size runs at the default seed")

// smokeSize runs every workload in well under a second.
var smokeSize = size{
	flowScale:  0.05,
	synthBench: "adder", synthScale: 4,
	serveJobs:      150,
	predictBenches: 4, predictScale: 0.03, epochs: 1,
}

type logWriter struct{ t *testing.T }

func (w logWriter) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimSpace(string(p)))
	return len(p), nil
}

// smoke runs one operation of w at smokeSize with procs as GOMAXPROCS,
// which bounds every worker pool the workload uses.
func smoke(t *testing.T, w workload, procs int, trace bool, ref json.RawMessage) *outcome {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	out, err := bench(config{
		workload: w, seed: defaultSeed, size: smokeSize, trace: trace,
		reference: ref, log: logWriter{t},
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestDigestsIndependentOfWorkers(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			one := smoke(t, w, 1, false, nil)
			all := smoke(t, w, runtime.NumCPU(), false, nil)
			if one.failed != 0 || all.failed != 0 {
				t.Fatalf("failed operations: %d at one worker, %d at %d", one.failed, all.failed, runtime.NumCPU())
			}
			if !bytes.Equal(one.digest, all.digest) {
				t.Errorf("digest at one worker\n%s\ndiffers at %d\n%s", one.digest, runtime.NumCPU(), all.digest)
			}
		})
	}
}

func TestTracedDigestMatchesUntraced(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			plain := smoke(t, w, runtime.NumCPU(), false, nil)
			// The traced run checks its untraced, traced and calibration
			// operations against the untraced digest.
			traced := smoke(t, w, runtime.NumCPU(), true, plain.digest)
			if traced.failed != 0 || traced.attempted < 3 {
				t.Errorf("traced run: %d of %d operations failed", traced.failed, traced.attempted)
			}
		})
	}
}

func TestDigestMismatchFailsOperations(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			good := smoke(t, w, runtime.NumCPU(), false, nil)
			bad := append(json.RawMessage(nil), good.digest...)
			i := bytes.IndexAny(bad, "0123456789")
			if i < 0 {
				t.Fatalf("digest %s has no number to corrupt", bad)
			}
			bad[i] = '0' + (bad[i]-'0'+1)%10
			out := smoke(t, w, runtime.NumCPU(), false, bad)
			if out.attempted == 0 || out.failed != out.attempted {
				t.Errorf("corrupted reference: %d of %d operations failed, want all", out.failed, out.attempted)
			}
		})
	}
}

// TestPrintedMetricsMatchBenchmarkJSON runs the command and checks the
// result line against the metric contract in BENCHMARK.json.
func TestPrintedMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for i, w := range workloads {
		if i >= len(names) || names[i] != w.name {
			t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %s", names, w.name)
		}
	}
	for _, w := range workloads {
		for trace, defs := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
			var stdout, stderr bytes.Buffer
			args := []string{"--workload", w.name, "--seed", "2", "--seconds", "0", "--trace", string(rune('0' + trace))}
			if code := run(args, smokeSize, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace=%d: exit %d: %s", w.name, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var got summary
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
				t.Fatalf("%s trace=%d: last line: %v", w.name, trace, err)
			}
			if !got.Correct || got.Attempted < 1 || got.Failed != 0 {
				t.Errorf("%s trace=%d: %+v", w.name, trace, got)
			}
			want := map[string]string{}
			for _, m := range defs {
				want[m.Name] = m.Unit
			}
			if len(got.Metrics) != len(want) {
				t.Errorf("%s trace=%d: printed %d metrics, BENCHMARK.json lists %d", w.name, trace, len(got.Metrics), len(want))
			}
			for name, m := range got.Metrics {
				if unit, ok := want[name]; !ok || unit != m.Unit {
					t.Errorf("%s trace=%d: printed %s in %q, BENCHMARK.json has %q", w.name, trace, name, m.Unit, unit)
				}
			}
		}
	}
}

// TestReference checks reference.json against full-size runs at the
// default seed; -update rewrites it instead.
func TestReference(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size runs")
	}
	refs, err := references()
	if err != nil && !*update {
		t.Fatal(err)
	}
	got := map[string]json.RawMessage{}
	for _, w := range workloads {
		out, err := bench(config{workload: w, seed: defaultSeed, size: fullSize, log: logWriter{t}})
		if err != nil {
			t.Fatal(err)
		}
		if out.failed != 0 {
			t.Fatalf("%s: %d operations failed", w.name, out.failed)
		}
		got[w.name] = out.digest
		if !*update && !bytes.Equal(out.digest, refs[w.name]) {
			t.Errorf("%s digest\n%s\nreference.json has\n%s", w.name, out.digest, refs[w.name])
		}
	}
	if !*update {
		return
	}
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("reference.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
