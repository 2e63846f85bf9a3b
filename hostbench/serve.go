package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"edacloud/internal/cloud"
	"edacloud/internal/flow"
	"edacloud/internal/mckp"
	"edacloud/internal/serve"
)

// serveDigest is the simulated outcome of one trace replay.
type serveDigest struct {
	Jobs            int     `json:"jobs"`
	Admitted        int     `json:"admitted"`
	Rejected        int     `json:"rejected"`
	Replans         int     `json:"replans"`
	Adopted         int     `json:"adopted"`
	TotalCostUSD    float64 `json:"total_cost_usd"`
	MissedDeadlines int     `json:"missed_deadlines"`
	MissedPromises  int     `json:"missed_promises"`
}

func digestOf(r *serve.Report) serveDigest {
	return serveDigest{
		Jobs: r.Jobs, Admitted: r.Admitted, Rejected: r.Rejected,
		Replans: r.Replans, Adopted: r.Adopted, TotalCostUSD: r.TotalCostUSD,
		MissedDeadlines: r.MissedDeadlines, MissedPromises: r.MissedPromises,
	}
}

// check holds at every seed: every job is decided, and admission
// never promises what the fleet then misses.
func (d serveDigest) check() error {
	if d.MissedDeadlines != 0 || d.MissedPromises != 0 {
		return fmt.Errorf("serve: %d missed deadlines, %d missed promises", d.MissedDeadlines, d.MissedPromises)
	}
	if d.Admitted+d.Rejected != d.Jobs || d.Admitted == 0 {
		return fmt.Errorf("serve: %d admitted + %d rejected of %d jobs", d.Admitted, d.Rejected, d.Jobs)
	}
	return nil
}

// serveRequest is one trace job as the two request bodies a client
// sends: move the clock to its arrival, then submit it.
type serveRequest struct {
	advance, submit []byte
}

type serveInst struct {
	trace []serve.TraceJob
	reqs  []serveRequest
}

// The fleet, tenants and templates of the admission smoke benchmark:
// eight machines shared by three weighted tenants submitting short
// two-stage and long three-stage flows.
const serveFleet = "gp.1x=2,gp.4x=2,mem.1x=2,mem.4x=2"

var serveTenants = []serve.Tenant{
	{Name: "acme", Weight: 3}, {Name: "blue", Weight: 2}, {Name: "coral", Weight: 1},
}

// setupServe generates the seeded arrival trace and encodes its
// request bodies.
func setupServe(seed int64, sz size) (instance, error) {
	trace, err := serve.TraceGen(serve.TraceConfig{
		Seed: seed, Jobs: sz.serveJobs, RatePerSec: 0.15, Burstiness: 0.4, SlackSec: 220,
		Tenants:   []string{"acme", "blue", "coral"},
		Templates: []string{"short", "long"},
	})
	if err != nil {
		return nil, err
	}
	s := &serveInst{trace: trace, reqs: make([]serveRequest, len(trace))}
	for i, tj := range trace {
		adv, err := json.Marshal(map[string]float64{"to_sec": tj.ArrivalSec})
		if err != nil {
			return nil, err
		}
		sub, err := json.Marshal(map[string]any{
			"tenant": tj.Tenant, "template": tj.Template, "name": tj.Name,
			"arrival_sec": tj.ArrivalSec, "deadline_sec": tj.DeadlineSec,
		})
		if err != nil {
			return nil, err
		}
		s.reqs[i] = serveRequest{adv, sub}
	}
	return s, nil
}

// serveConfig builds a fresh engine configuration; the engine consumes its
// fleet, so every replay needs its own.
func serveConfig() (serve.Config, error) {
	fleet, err := cloud.ParseFleetSpec(cloud.DefaultCatalog(), serveFleet)
	if err != nil {
		return serve.Config{}, err
	}
	var itemErr error
	item := func(label string, secs int) mckp.Item {
		typ, ok := fleet.TypeByName(label)
		if !ok {
			itemErr = fmt.Errorf("serve: fleet has no type %q", label)
		}
		return mckp.Item{Label: label, TimeSec: secs, Cost: typ.Cost(float64(secs))}
	}
	templates := []serve.Template{
		{
			Name:  "short",
			Kinds: []flow.JobKind{flow.JobSynthesis, flow.JobRouting},
			Classes: []mckp.Class{
				{Name: "synthesis", Items: []mckp.Item{item("gp.1x", 20), item("gp.4x", 8)}},
				{Name: "routing", Items: []mckp.Item{item("mem.1x", 16), item("mem.4x", 6)}},
			},
		},
		{
			Name:  "long",
			Kinds: []flow.JobKind{flow.JobSynthesis, flow.JobPlacement, flow.JobRouting},
			Classes: []mckp.Class{
				{Name: "synthesis", Items: []mckp.Item{item("gp.1x", 30), item("gp.4x", 12)}},
				{Name: "placement", Items: []mckp.Item{item("mem.1x", 24), item("mem.4x", 10)}},
				{Name: "routing", Items: []mckp.Item{item("mem.1x", 20), item("mem.4x", 8)}},
			},
		},
	}
	return serve.Config{Fleet: fleet, Tenants: serveTenants, Templates: templates}, itemErr
}

// call sends one in-process request to the API handler and returns the
// response; no socket is involved.
func call(h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec
}

// op replays the trace through the HTTP API: one client, each request
// sent when the previous one has returned, arrivals in simulated time.
func (s *serveInst) op(tr *tracer) (result, error) {
	cfg, err := serveConfig()
	if err != nil {
		return result{}, err
	}
	srv, err := serve.NewServer(cfg)
	if err != nil {
		return result{}, err
	}
	h := srv.Handler()
	lat := make([]float64, len(s.reqs))
	replay := tr.begin("replay")
	watch := startWatch()
	for i, req := range s.reqs {
		t0 := time.Now()
		id := tr.begin("admit")
		adv := call(h, "POST", "/v1/advance", req.advance)
		sub := call(h, "POST", "/v1/jobs", req.submit)
		tr.end(id)
		lat[i] = time.Since(t0).Seconds()
		if adv.Code != http.StatusOK || (sub.Code != http.StatusCreated && sub.Code != http.StatusConflict) {
			tr.end(replay)
			return result{}, fmt.Errorf("serve: job %d: advance %d, submit %d: %s", i, adv.Code, sub.Code, sub.Body)
		}
	}
	id := tr.begin("drain")
	drain := call(h, "POST", "/v1/advance", []byte(`{"drain":true}`))
	tr.end(id)
	took := watch.elapsed()
	tr.end(replay)
	if drain.Code != http.StatusOK {
		return result{}, fmt.Errorf("serve: drain %d: %s", drain.Code, drain.Body)
	}
	var rep serve.Report
	if err := json.Unmarshal(call(h, "GET", "/v1/report", nil).Body.Bytes(), &rep); err != nil {
		return result{}, fmt.Errorf("serve: decoding the report: %w", err)
	}
	d := digestOf(&rep)
	if err := d.check(); err != nil {
		return result{}, err
	}
	return result{digest: d, took: took, latencies: lat}, nil
}

// calibrate replays the trace straight into the engine, one span per
// AdvanceTo and Submit call, to split admission time between the
// engine and the HTTP layer. It must decide exactly as the API did.
func (s *serveInst) calibrate(tr *tracer, ref result) error {
	cfg, err := serveConfig()
	if err != nil {
		return err
	}
	eng, err := serve.New(cfg)
	if err != nil {
		return err
	}
	for _, tj := range s.trace {
		id := tr.begin("advance")
		eng.AdvanceTo(tj.ArrivalSec)
		tr.end(id)
		id = tr.begin("submit")
		_, err := eng.Submit(serve.SubmitRequest{
			Tenant: tj.Tenant, Template: tj.Template, Name: tj.Name,
			ArrivalSec: tj.ArrivalSec, DeadlineSec: tj.DeadlineSec,
		})
		tr.end(id)
		if err != nil {
			return err
		}
	}
	eng.Drain()
	if got := digestOf(eng.Report()); got != ref.digest.(serveDigest) {
		return fmt.Errorf("serve: engine replay %+v, API replay %+v", got, ref.digest)
	}
	return nil
}

func (s *serveInst) layers(tr *tracer, last result) map[string]float64 {
	d, _ := last.digest.(serveDigest)
	sub, adv := tr.durations("submit"), tr.durations("advance")
	engine := tr.secondsPerOp("submit") + tr.secondsPerOp("advance")
	return map[string]float64{
		"serve.submit_p50_ms":  1e3 * quantile(sub, 0.5),
		"serve.submit_p99_ms":  1e3 * quantile(sub, 0.99),
		"serve.advance_p50_ms": 1e3 * quantile(adv, 0.5),
		"serve.advance_p99_ms": 1e3 * quantile(adv, 0.99),
		"serve.drain_s":        tr.secondsPerOp("drain"),
		"serve.http_share":     1 - engine/tr.secondsPerOp("admit"),
		"serve.alloc_mib":      tr.mibPerOp("replay"),
		"serve.replans":        float64(d.Replans),
		"serve.adopt_ratio":    float64(d.Adopted) / float64(d.Replans),
		"serve.admitted":       float64(d.Admitted),
		"serve.rejected":       float64(d.Rejected),
	}
}
