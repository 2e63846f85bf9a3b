package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func doJSON(t *testing.T, srv *httptest.Server, method, path string, body any, status int, out any) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, srv.URL+path, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != status {
		var e map[string]string
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("%s %s: status %d, want %d (%v)", method, path, resp.StatusCode, status, e)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
}

// TestServerLifecycle drives the full API over httptest: submit,
// reject, advance the virtual clock, stream progress, cancel, and read
// the ledgers.
func TestServerLifecycle(t *testing.T) {
	s, err := NewServer(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	var st JobStatus
	doJSON(t, srv, "POST", "/v1/jobs", map[string]any{
		"tenant": "alpha", "template": "small", "name": "one", "arrival_sec": 0, "deadline_sec": 2000,
	}, http.StatusCreated, &st)
	if st.Status != StatusAdmitted || st.ID != 0 || st.PromisedSec <= 0 {
		t.Fatalf("submit: %+v", st)
	}

	// An impossible deadline comes back 409 with the rejection reason.
	var rej JobStatus
	doJSON(t, srv, "POST", "/v1/jobs", map[string]any{
		"tenant": "beta", "template": "big", "name": "nope", "arrival_sec": 1, "deadline_sec": 5,
	}, http.StatusConflict, &rej)
	if rej.Status != StatusRejected || rej.Reason == "" {
		t.Fatalf("reject: %+v", rej)
	}

	// Bad requests refuse cleanly.
	doJSON(t, srv, "POST", "/v1/jobs", map[string]any{"tenant": "nobody", "template": "small"}, http.StatusBadRequest, nil)
	doJSON(t, srv, "GET", "/v1/jobs/99", nil, http.StatusNotFound, nil)
	doJSON(t, srv, "GET", "/v1/jobs/xx", nil, http.StatusBadRequest, nil)

	// Advance past the first stage: progress events appear.
	var clock map[string]float64
	doJSON(t, srv, "POST", "/v1/advance", map[string]any{"to_sec": st.Stages[0].EndSec + 1}, http.StatusOK, &clock)
	if clock["now_sec"] != st.Stages[0].EndSec+1 {
		t.Fatalf("clock: %v", clock)
	}
	var evs []Event
	doJSON(t, srv, "GET", "/v1/jobs/0/events", nil, http.StatusOK, &evs)
	if len(evs) < 2 {
		t.Fatalf("no progress after first stage: %+v", evs)
	}
	// The clock refuses to run backwards.
	doJSON(t, srv, "POST", "/v1/advance", map[string]any{"to_sec": 1}, http.StatusBadRequest, nil)

	// Submit and cancel a second job.
	var st2 JobStatus
	doJSON(t, srv, "POST", "/v1/jobs", map[string]any{
		"tenant": "beta", "template": "big", "name": "two", "arrival_sec": clock["now_sec"] + 1,
	}, http.StatusCreated, &st2)
	var canceled JobStatus
	doJSON(t, srv, "POST", fmt.Sprintf("/v1/jobs/%d/cancel", st2.ID), nil, http.StatusOK, &canceled)
	if canceled.Status != StatusCanceled {
		t.Fatalf("cancel: %+v", canceled)
	}
	doJSON(t, srv, "POST", fmt.Sprintf("/v1/jobs/%d/cancel", st2.ID), nil, http.StatusConflict, nil)

	// Drain and read the ledgers.
	doJSON(t, srv, "POST", "/v1/advance", map[string]any{"drain": true}, http.StatusOK, &clock)
	var all []JobStatus
	doJSON(t, srv, "GET", "/v1/jobs", nil, http.StatusOK, &all)
	if len(all) != 3 {
		t.Fatalf("want 3 jobs, got %d", len(all))
	}
	var got JobStatus
	doJSON(t, srv, "GET", "/v1/jobs/0", nil, http.StatusOK, &got)
	if got.Status != StatusDone || got.FinishSec > got.PromisedSec+1e-9 {
		t.Fatalf("job 0 after drain: %+v", got)
	}
	var stats []TenantStat
	doJSON(t, srv, "GET", "/v1/tenants", nil, http.StatusOK, &stats)
	if len(stats) != 2 || stats[0].Name != "alpha" || stats[0].Done != 1 {
		t.Fatalf("tenants: %+v", stats)
	}
	var rep Report
	doJSON(t, srv, "GET", "/v1/report", nil, http.StatusOK, &rep)
	if rep.Jobs != 3 || rep.Completed != 1 || rep.Rejected != 1 || rep.Canceled != 1 || rep.MissedPromises != 0 {
		t.Fatalf("report: %s", &rep)
	}
}

// TestServerRejectsBadBodies: a body past the 1 MiB limit is refused
// with 413 and a body naming a field the endpoint does not declare with
// 400, on every POST endpoint, before the engine sees either.
func TestServerRejectsBadBodies(t *testing.T) {
	s, err := NewServer(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	huge := strings.Repeat("x", maxBodyBytes)
	doJSON(t, srv, "POST", "/v1/jobs", map[string]any{
		"tenant": "alpha", "template": "small", "name": huge, "arrival_sec": 0,
	}, http.StatusRequestEntityTooLarge, nil)
	doJSON(t, srv, "POST", "/v1/advance", map[string]any{"to_sec": 1, "pad": huge}, http.StatusRequestEntityTooLarge, nil)
	doJSON(t, srv, "POST", "/v1/jobs", map[string]any{
		"tenant": "alpha", "template": "small", "name": "one", "arrival_sec": 0, "priority": 9,
	}, http.StatusBadRequest, nil)
	doJSON(t, srv, "POST", "/v1/advance", map[string]any{"to": 5}, http.StatusBadRequest, nil)

	var st JobStatus
	doJSON(t, srv, "POST", "/v1/jobs", map[string]any{
		"tenant": "alpha", "template": "small", "name": "one", "arrival_sec": 0,
	}, http.StatusCreated, &st)
	doJSON(t, srv, "POST", fmt.Sprintf("/v1/jobs/%d/cancel", st.ID), map[string]any{"when": 1}, http.StatusBadRequest, nil)
	if st.ID != 0 || s.Engine().Now() != 0 {
		t.Fatalf("refused bodies reached the engine: job id %d, clock %g", st.ID, s.Engine().Now())
	}
}

// spaces is an endless source of JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// FuzzSubmitHandler drives arbitrary /v1/advance and /v1/jobs bodies
// through the API, then drains: whatever arrives, every answer is a
// 2xx or 4xx and nothing panics. padKiB puts that many KiB of
// whitespace ahead of the job body, so the corpus reaches the body-size
// limit without a megabyte seed file.
func FuzzSubmitHandler(f *testing.F) {
	f.Fuzz(func(t *testing.T, advance, submit []byte, padKiB uint16) {
		s, err := NewServer(testConfig(t))
		if err != nil {
			t.Fatal(err)
		}
		h := s.Handler()
		for _, req := range []struct {
			path string
			body io.Reader
		}{
			{"/v1/advance", bytes.NewReader(advance)},
			{"/v1/jobs", io.MultiReader(io.LimitReader(spaces{}, int64(padKiB)<<10), bytes.NewReader(submit))},
			{"/v1/advance", strings.NewReader(`{"drain":true}`)},
		} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", req.path, req.body))
			if rec.Code < 200 || rec.Code >= 500 {
				t.Fatalf("POST %s: status %d: %s", req.path, rec.Code, rec.Body)
			}
		}
	})
}
