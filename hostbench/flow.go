package main

import (
	"fmt"
	"time"

	"edacloud/internal/aig"
	"edacloud/internal/designs"
	"edacloud/internal/flow"
	"edacloud/internal/perf"
	"edacloud/internal/synth"
	"edacloud/internal/techlib"
)

// flowVCPUs is the simulated VM size of the per-stage probes, as in
// edaflow's default profile.
const flowVCPUs = 4

// flowArtifacts identifies a flow's outputs: the seven artifact
// content hashes and the router's work counts.
type flowArtifacts struct {
	DesignHash    uint64 `json:"design_hash"`
	LibHash       uint64 `json:"lib_hash"`
	OptimizedHash uint64 `json:"optimized_hash"`
	NetlistHash   uint64 `json:"netlist_hash"`
	PlacementHash uint64 `json:"placement_hash"`
	RoutingHash   uint64 `json:"routing_hash"`
	TimingHash    uint64 `json:"timing_hash"`
	RRRIters      int    `json:"rrr_iters"`
	Connections   int    `json:"connections"`
}

func artifactsOf(rc *flow.RunContext) flowArtifacts {
	return flowArtifacts{
		DesignHash: rc.DesignHash(), LibHash: rc.LibHash(),
		OptimizedHash: rc.OptimizedHash(), NetlistHash: rc.NetlistHash(),
		PlacementHash: rc.PlacementHash(), RoutingHash: rc.RoutingHash(),
		TimingHash:  rc.TimingHash(),
		RRRIters:    rc.Routing.Iterations,
		Connections: rc.Routing.Connections,
	}
}

// flowDigest is everything a full flow simulates: its artifacts and
// each stage's probe counters.
type flowDigest struct {
	flowArtifacts
	Counters map[string]perf.Counters `json:"counters"`
}

type flowInst struct {
	g       *aig.Graph
	lib     *techlib.Library
	clockNs float64
	recipe  synth.Recipe
	// unprobed holds the host seconds of the traced run's probe-off
	// flows, for perf.probe_s.
	unprobed []float64
}

// setupFlow builds the ibex evaluation design. The seed picks the STA
// clock period, which changes the timing artifact but not the work the
// other stages do, so host time does not depend on the seed.
func setupFlow(seed int64, sz size) (instance, error) {
	g, err := designs.EvalDesign("ibex", sz.flowScale)
	if err != nil {
		return nil, err
	}
	recipe, err := synth.RecipeByName("resyn2")
	if err != nil {
		return nil, err
	}
	return &flowInst{
		g: g, lib: techlib.Default14nm(), recipe: recipe,
		clockNs: 0.8 + 0.05*float64(seed%9),
	}, nil
}

func (f *flowInst) run(tr *tracer, probes bool) (*flow.RunContext, error) {
	opts := []flow.Option{
		flow.WithRecipe(f.recipe),
		flow.WithClockPeriodNs(f.clockNs),
	}
	if probes {
		estCells := flow.EstimateCells(f.g.NumAnds())
		opts = append(opts, flow.WithNewProbe(func(flow.JobKind) *perf.Probe {
			return flow.NewJobProbe(flowVCPUs, estCells)
		}))
	}
	if tr != nil {
		// Stage events fire synchronously on the pipeline goroutine at
		// each stage boundary, so a span opened on StageStarted and
		// closed on StageFinished brackets exactly one stage call.
		open := -1
		opts = append(opts, flow.WithEvents(func(e flow.Event) {
			switch e.Type {
			case flow.StageStarted:
				open = tr.begin(e.Kind.String())
			case flow.StageFinished:
				tr.end(open)
			}
		}))
	}
	id := tr.begin("flow")
	rc, err := flow.NewPipeline(opts...).Run(f.g, f.lib)
	tr.end(id)
	return rc, err
}

func (f *flowInst) op(tr *tracer) (result, error) {
	watch := startWatch()
	rc, err := f.run(tr, true)
	took := watch.elapsed()
	if err != nil {
		return result{}, err
	}
	d := flowDigest{artifactsOf(rc), map[string]perf.Counters{}}
	for _, k := range flow.JobKinds() {
		rep := rc.Reports[k]
		if rep == nil {
			return result{}, fmt.Errorf("flow: no %s report", k)
		}
		c := rep.Total()
		if c.Instrs == 0 {
			return result{}, fmt.Errorf("flow: %s simulated no instructions", k)
		}
		d.Counters[k.String()] = c
	}
	if rc.Routing.FailedConnections != 0 {
		return result{}, fmt.Errorf("flow: %d connections failed to route", rc.Routing.FailedConnections)
	}
	return result{digest: d, took: took}, nil
}

// calibrate runs the flow with probes off. Its artifacts must hash the
// same as the probed flow's: the probe only observes.
func (f *flowInst) calibrate(_ *tracer, ref result) error {
	start := time.Now()
	rc, err := f.run(nil, false)
	if err != nil {
		return err
	}
	f.unprobed = append(f.unprobed, time.Since(start).Seconds())
	want := ref.digest.(flowDigest).flowArtifacts
	if got := artifactsOf(rc); got != want {
		return fmt.Errorf("flow: probe-off artifacts %+v differ from the probed flow's %+v", got, want)
	}
	return nil
}

func (f *flowInst) layers(tr *tracer, last result) map[string]float64 {
	d, _ := last.digest.(flowDigest)
	flowS := tr.secondsPerOp("flow")
	probeS := flowS - median(f.unprobed)
	var instrs uint64
	for _, c := range d.Counters {
		instrs += c.Instrs
	}
	return map[string]float64{
		"synth.stage_s":         tr.secondsPerOp("synthesis"),
		"place.stage_s":         tr.secondsPerOp("placement"),
		"place.alloc_mib":       tr.mibPerOp("placement"),
		"route.stage_s":         tr.secondsPerOp("routing"),
		"route.alloc_mib":       tr.mibPerOp("routing"),
		"sta.stage_s":           tr.secondsPerOp("sta"),
		"perf.probe_s":          probeS,
		"perf.probe_share":      probeS / flowS,
		"perf.sim_instrs":       float64(instrs),
		"perf.sim_minstr_per_s": float64(instrs) / 1e6 / flowS,
		"route.rrr_iters":       float64(d.RRRIters),
		"route.connections":     float64(d.Connections),
	}
}
