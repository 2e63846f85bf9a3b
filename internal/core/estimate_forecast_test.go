package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"edacloud/internal/cloud"
	"edacloud/internal/flow"
	"edacloud/internal/mckp"
)

// TestBatchEstimateMatchesForecast pins the agreement mckp's batch
// estimator only promises in a comment: on integral runtimes and ready
// times, a BatchSelection's per-job Estimates and MakespanSec equal what
// flow.Forecast computes for the same picks on a fleet of the same
// capacity. Roughly a third of the batches start on a pre-booked fleet,
// whose committed capacity reaches the estimator through
// BatchState.FreeAtSec.
func TestBatchEstimateMatchesForecast(t *testing.T) {
	catalog := cloud.DefaultCatalog()
	typeNames := []string{"gp.1x", "gp.2x", "gp.8x", "mem.1x", "mem.4x", "cpu.2x"}
	kinds := flow.JobKinds()
	prebooked := 0
	for seed := int64(1); seed <= 240; seed++ {
		rng := rand.New(rand.NewSource(seed))

		var spec []string
		for _, i := range rng.Perm(len(typeNames))[:2+rng.Intn(3)] {
			spec = append(spec, fmt.Sprintf("%s=%d", typeNames[i], 1+rng.Intn(3)))
		}
		fleet, err := cloud.ParseFleetSpec(catalog, strings.Join(spec, ","))
		if err != nil {
			t.Fatal(err)
		}
		var labels []string
		capacity := mckp.Capacity{}
		for _, e := range fleet.Profile() {
			labels = append(labels, e.Type.Name)
			capacity[e.Type.Name] = e.Count
		}

		var st mckp.BatchState
		if seed%3 == 0 {
			prebooked++
			for idx, inst := range fleet.Instances {
				end := 0
				for n := rng.Intn(3); n > 0; n-- {
					dur := 1 + rng.Intn(40)
					fleet.Book(idx, "pre", "pre", float64(end), float64(dur))
					end += dur
				}
				if st.FreeAtSec == nil {
					st.FreeAtSec = map[string][]int{}
				}
				st.FreeAtSec[inst.Type.Name] = append(st.FreeAtSec[inst.Type.Name], int(inst.FreeAtSec))
			}
		}

		jobs := make([]mckp.BatchJob, 2+rng.Intn(7))
		for i := range jobs {
			job := mckp.BatchJob{Name: fmt.Sprintf("j%d", i), ReadySec: rng.Intn(30)}
			for l := 0; l < 1+rng.Intn(len(kinds)); l++ {
				cl := mckp.Class{Name: kinds[l].String()}
				for _, k := range rng.Perm(len(labels))[:1+rng.Intn(len(labels))] {
					cl.Items = append(cl.Items, mckp.Item{
						Label:   labels[k],
						TimeSec: 1 + rng.Intn(60),
						Cost:    0.001 * float64(1+rng.Intn(50)),
					})
				}
				job.Classes = append(job.Classes, cl)
			}
			if rng.Intn(2) == 0 {
				job.DeadlineSec = job.ReadySec + mckp.MaxTotalTime(job.Classes) + rng.Intn(60)
			}
			jobs[i] = job
		}

		sel, err := mckp.BatchOptimizeState(jobs, capacity, st)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !sel.Feasible {
			t.Fatalf("seed %d: batch infeasible", seed)
		}
		fjobs := make([]flow.ForecastJob, len(jobs))
		for i, job := range jobs {
			fj := flow.ForecastJob{Name: job.Name, ReadySec: float64(job.ReadySec)}
			for l, pick := range sel.Jobs[i].Pick {
				it := job.Classes[l].Items[pick]
				typ, ok := fleet.TypeByName(it.Label)
				if !ok {
					t.Fatalf("seed %d: pick names %q, absent from the fleet", seed, it.Label)
				}
				fj.Stages = append(fj.Stages, flow.ForecastStage{Kind: kinds[l], Type: typ, Seconds: float64(it.TimeSec)})
			}
			fjobs[i] = fj
		}
		sched, err := flow.Forecast(fleet.Snapshot(), fjobs)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i, est := range sel.Estimates {
			got := sched.Jobs[i]
			if float64(est.StartSec) != got.StartSec || float64(est.WaitSec) != got.WaitSec ||
				float64(est.FinishSec) != got.FinishSec {
				t.Fatalf("seed %d job %d: estimate start/wait/finish %d/%d/%d, forecast %g/%g/%g",
					seed, i, est.StartSec, est.WaitSec, est.FinishSec, got.StartSec, got.WaitSec, got.FinishSec)
			}
		}
		if float64(sel.MakespanSec) != sched.MakespanSec {
			t.Fatalf("seed %d: estimated makespan %d, forecast %g", seed, sel.MakespanSec, sched.MakespanSec)
		}
	}
	if prebooked < 50 {
		t.Fatalf("only %d pre-booked batches", prebooked)
	}
}
