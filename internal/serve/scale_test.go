package serve

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
)

// TestLaxDeadlinesAdmitSamePlan: a deadline far beyond any plan is as
// good as none. Deadlines whose whole seconds overflow an int, and
// ones wide enough to size a ten-billion-entry DP table, are admitted
// with exactly the plan a merely generous deadline gets, in both the
// rolling-horizon and the independent engine.
func TestLaxDeadlinesAdmitSamePlan(t *testing.T) {
	for _, independent := range []bool{false, true} {
		plan := func(deadline float64) []PlannedStage {
			cfg := testConfig(t)
			cfg.Independent = independent
			eng, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			st, err := eng.Submit(SubmitRequest{Tenant: "alpha", Template: "big", Name: "lax", ArrivalSec: 3, DeadlineSec: deadline})
			if err != nil {
				t.Fatalf("independent=%v deadline %g: %v", independent, deadline, err)
			}
			if st.Status != StatusAdmitted {
				t.Fatalf("independent=%v deadline %g: %s (%s)", independent, deadline, st.Status, st.Reason)
			}
			return st.Stages
		}
		want := plan(1e6)
		for _, d := range []float64{1e7, 1e10, 1e19, 1e300, math.Inf(1)} {
			if got := plan(d); !reflect.DeepEqual(got, want) {
				t.Fatalf("independent=%v deadline %g planned %+v, deadline 1e6 planned %+v", independent, d, got, want)
			}
		}
	}
}

// TestSubmitRejectsOutOfRangeTimes: arrivals the integral clock cannot
// represent, and NaN deadlines, are request errors, not rejections or
// panics.
func TestSubmitRejectsOutOfRangeTimes(t *testing.T) {
	eng, err := New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range []SubmitRequest{
		{ArrivalSec: 1e19},
		{ArrivalSec: math.Inf(1)},
		{ArrivalSec: math.NaN()},
		{ArrivalSec: 1, DeadlineSec: math.NaN()},
	} {
		req.Tenant, req.Template, req.Name = "alpha", "small", "odd"
		if _, err := eng.Submit(req); err == nil {
			t.Fatalf("arrival %g deadline %g accepted", req.ArrivalSec, req.DeadlineSec)
		}
	}
	if n := len(eng.Jobs()); n != 0 {
		t.Fatalf("refused requests left %d jobs behind", n)
	}
}

// submitAllocs replays a jobs-long trace into a fresh engine and
// returns the heap bytes allocated per Submit over its last 200 jobs,
// plus the engine after draining.
func submitAllocs(t *testing.T, jobs int) (float64, *Engine) {
	t.Helper()
	trace, err := TraceGen(TraceConfig{
		Seed: 3, Jobs: jobs, RatePerSec: 0.01, Burstiness: 0.3, SlackSec: 2500,
		Tenants: []string{"alpha", "beta"}, Templates: []string{"small", "big"},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t)
	events := 0
	cfg.OnEvent = func(Event) { events++ }
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	for i, tj := range trace {
		if i == len(trace)-200 {
			runtime.ReadMemStats(&before)
		}
		if _, err := eng.Submit(SubmitRequest{
			Tenant: tj.Tenant, Template: tj.Template, Name: tj.Name,
			ArrivalSec: tj.ArrivalSec, DeadlineSec: tj.DeadlineSec,
		}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	eng.Drain()
	if events == 0 {
		t.Fatal("no progress events streamed")
	}
	return float64(after.TotalAlloc-before.TotalAlloc) / 200, eng
}

// TestSubmitAllocsFlatInTraceLength: a re-plan works on live jobs and
// live leases only, so the bytes one Submit allocates at the end of a
// long trace match those at the end of a short one at the same arrival
// rate. Copying the whole lease history per event would make the long
// trace's allocate several times as much.
func TestSubmitAllocsFlatInTraceLength(t *testing.T) {
	short, _ := submitAllocs(t, 400)
	long, eng := submitAllocs(t, 2000)
	t.Logf("bytes allocated per Submit over the last 200 jobs: %.0f (400 jobs), %.0f (2000 jobs)", short, long)
	if long > 1.5*short {
		t.Fatalf("per-Submit allocation grows with trace length: %.0f bytes at 2000 jobs vs %.0f at 400", long, short)
	}
	fleetHoldsEveryLease(t, eng)
}

// fleetHoldsEveryLease: the engine's Fleet still reports every lease
// of the run — settled history included — one per planned stage, in
// start order per instance, with the ledger equal to their bills.
func fleetHoldsEveryLease(t *testing.T, eng *Engine) {
	t.Helper()
	fleet := eng.Fleet()
	leases := map[string]int{}
	var n int
	var bills, busy, ledgerBusy float64
	for _, inst := range fleet.Instances {
		ledgerBusy += inst.BusySec
		for i, l := range inst.Leases {
			if i > 0 && l.StartSec < inst.Leases[i-1].EndSec {
				t.Fatalf("%s: lease %d starts at %g before lease %d ends at %g", inst.ID, i, l.StartSec, i-1, inst.Leases[i-1].EndSec)
			}
			leases[fmt.Sprintf("%s %g %g", l.Job, l.StartSec, l.EndSec)]++
			bills += l.CostUSD
			busy += l.EndSec - l.StartSec
			n++
		}
	}
	var stages int
	for _, st := range eng.Jobs() {
		for _, s := range st.Stages {
			key := fmt.Sprintf("%s %g %g", jobKey(st.ID), s.StartSec, s.EndSec)
			if leases[key] == 0 {
				t.Fatalf("job %d stage %s [%g, %g) has no lease in the fleet", st.ID, s.Kind, s.StartSec, s.EndSec)
			}
			leases[key]--
			stages++
		}
	}
	if n != stages || stages == 0 {
		t.Fatalf("fleet holds %d leases for %d planned stages", n, stages)
	}
	if math.Abs(bills-fleet.TotalCostUSD()) > 1e-9 || math.Abs(busy-ledgerBusy) > 1e-6 {
		t.Fatalf("lease bills %g / busy %g vs ledger %g / %g", bills, busy, fleet.TotalCostUSD(), ledgerBusy)
	}
}
