// Service equivalence suite: a tracedstd job validates, transforms and
// simulates its upload in one streaming pass, and its report must be the
// one a direct simulation of the same records renders.
package tracedst_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"tracedst/internal/cache"
	"tracedst/internal/dinero"
	"tracedst/internal/rules"
	"tracedst/internal/server"
	"tracedst/internal/telemetry"
	"tracedst/internal/trace"
	"tracedst/internal/workloads"
	"tracedst/internal/xform"
)

// workloadRule is the paper rule a workload's structures match; the
// others pass through it untransformed.
func workloadRule(name string) string {
	switch {
	case strings.HasPrefix(name, "trans2"):
		return workloads.RuleTrans2
	case strings.HasPrefix(name, "trans3"):
		return workloads.RuleTrans3
	}
	return workloads.RuleTrans1
}

// directReport simulates recs, transformed by rule when it is non-empty,
// on the server's default cache.
func directReport(t *testing.T, recs []trace.Record, rule string) string {
	t.Helper()
	if rule != "" {
		r, err := rules.Parse(rule)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := xform.New(xform.Options{}, r)
		if err != nil {
			t.Fatal(err)
		}
		if recs, err = eng.TransformAll(recs); err != nil {
			t.Fatal(err)
		}
	}
	sim, err := dinero.New(dinero.Options{L1: cache.Paper32KDirect()})
	if err != nil {
		t.Fatal(err)
	}
	sim.Process(recs)
	return sim.Report()
}

// fetch sends req and returns the body of a 2xx response.
func fetch(t *testing.T, req *http.Request) []byte {
	t.Helper()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode/100 != 2 {
		t.Fatalf("%s %s: %s: %s", req.Method, req.URL.Path, resp.Status, body)
	}
	return body
}

// TestServerReportsAllWorkloads: all 15 workloads × {text, indexed .glb}
// × {no rule, the workload's rule}: the job ends done and its report is
// byte-identical to a direct run.
func TestServerReportsAllWorkloads(t *testing.T) {
	srv, err := server.New(server.Config{
		StateDir: t.TempDir(), RatePerSec: -1, Reg: telemetry.NewRegistry(), DisableSimCache: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Shutdown(context.Background())
	}()

	for _, name := range sortedWorkloads() {
		recs := traceWorkload(t, name)
		uploads := []struct {
			name string
			data []byte
		}{
			{"text", encodeTrace(t, recs, trace.FormatText)},
			{"glb", encodeIndexedTrace(t, recs, 0)},
		}
		for _, rule := range []string{"", workloadRule(name)} {
			want := directReport(t, recs, rule)
			for _, up := range uploads {
				req, _ := http.NewRequest(http.MethodPost,
					ts.URL+"/jobs?wait=1&rule="+url.QueryEscape(rule), bytes.NewReader(up.data))
				var job struct {
					ID, State, Error string
				}
				if err := json.Unmarshal(fetch(t, req), &job); err != nil {
					t.Fatal(err)
				}
				if job.State != string(server.StateDone) {
					t.Fatalf("%s/%s/rule=%t: job ended %s: %s", name, up.name, rule != "", job.State, job.Error)
				}
				req, _ = http.NewRequest(http.MethodGet, ts.URL+"/jobs/"+job.ID+"/report", nil)
				if got := string(fetch(t, req)); got != want {
					t.Errorf("%s/%s/rule=%t: report diverges from a direct run:\n--- want ---\n%s\n--- got ---\n%s",
						name, up.name, rule != "", want, got)
				}
			}
		}
	}
}
