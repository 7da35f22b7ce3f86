package main

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"sti"
	"sti/internal/obsv/promtest"
)

// openObsServeDB opens the serve test program with observability on, the way
// cmdServe does.
func openObsServeDB(t *testing.T) *sti.Database {
	t.Helper()
	db, err := sti.MustParse(serveTC).Open(
		sti.WithObservability(sti.ObservabilityConfig{}))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func get(t *testing.T, srv *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("GET %s body: %v", path, err)
	}
	return resp, body
}

func post(t *testing.T, srv *httptest.Server, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(srv.URL+path, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("POST %s body: %v", path, err)
	}
	return resp, out
}

func TestServeHTTPApplyQueryStats(t *testing.T) {
	db := openObsServeDB(t)
	srv := httptest.NewServer(serveMux(db))
	defer srv.Close()

	resp, body := post(t, srv, "/apply", "+edge\t1\t2\n+edge\t2\t3\n")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/apply = %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Request-Id") == "" {
		t.Fatal("/apply response has no X-Request-Id")
	}
	var applied struct {
		Epoch  uint64 `json:"epoch"`
		Staged int    `json:"staged"`
	}
	if err := json.Unmarshal(body, &applied); err != nil {
		t.Fatalf("/apply body: %v (%s)", err, body)
	}
	if applied.Epoch != 1 || applied.Staged != 2 {
		t.Fatalf("/apply = %+v", applied)
	}

	resp, body = get(t, srv, "/query?rel=path&p=1&p=_")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/query = %d: %s", resp.StatusCode, body)
	}
	var rows [][]string
	if err := json.Unmarshal(body, &rows); err != nil {
		t.Fatalf("/query body: %v (%s)", err, body)
	}
	if len(rows) != 2 { // path(1,2), path(1,3)
		t.Fatalf("/query rows = %v", rows)
	}

	resp, body = get(t, srv, "/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/stats = %d", resp.StatusCode)
	}
	text := string(body)
	for _, want := range []string{`"epoch":1`, `"incremental_applies":1`, `"requests"`} {
		if !strings.Contains(text, want) {
			t.Fatalf("/stats missing %s: %s", want, text)
		}
	}

	// An inbound request ID is honored end to end.
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/query?rel=path", nil)
	req.Header.Set("X-Request-Id", "ext-42")
	r2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if got := r2.Header.Get("X-Request-Id"); got != "ext-42" {
		t.Fatalf("inbound request ID not echoed: %q", got)
	}
}

func TestServeHTTPErrorBodies(t *testing.T) {
	db := openObsServeDB(t)
	srv := httptest.NewServer(serveMux(db))
	defer srv.Close()

	// Malformed batch line: typed row error with body:line:col position.
	resp, body := post(t, srv, "/apply", "+edge\t1\t2\n+edge\tx\t9\n")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("/apply bad field = %d, want 400", resp.StatusCode)
	}
	var eb struct {
		Error     string `json:"error"`
		RequestID string `json:"request_id"`
		Path      string `json:"path"`
		Line      int    `json:"line"`
		Col       int    `json:"col"`
		Rel       string `json:"rel"`
	}
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("error body is not JSON: %v (%s)", err, body)
	}
	if eb.Path != "body" || eb.Line != 2 || eb.Col != 7 || eb.Rel != "edge" {
		t.Fatalf("row error position = %+v", eb)
	}
	if eb.RequestID == "" || !strings.Contains(eb.Error, "bad number") {
		t.Fatalf("error body = %+v", eb)
	}

	// Line without a +/- prefix.
	if resp, _ := post(t, srv, "/apply", "edge\t1\t2\n"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("/apply junk line = %d, want 400", resp.StatusCode)
	}
	// Wrong method.
	if resp, _ := get(t, srv, "/apply"); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /apply = %d, want 405", resp.StatusCode)
	}
	// Unknown relation and missing parameter.
	if resp, _ := get(t, srv, "/query?rel=nope"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("/query unknown rel = %d, want 400", resp.StatusCode)
	}
	if resp, _ := get(t, srv, "/query"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("/query without rel = %d, want 400", resp.StatusCode)
	}
}

func TestServeHTTPHealthAndReady(t *testing.T) {
	db := openObsServeDB(t)
	srv := httptest.NewServer(serveMux(db))
	defer srv.Close()

	if resp, body := get(t, srv, "/healthz"); resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("/healthz = %d %q", resp.StatusCode, body)
	}
	resp, body := get(t, srv, "/readyz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"status":"ready"`) {
		t.Fatalf("/readyz = %d %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), `"phase":"ready"`) {
		t.Fatalf("/readyz carries no phase: %s", body)
	}

	db.Close()
	resp, body = get(t, srv, "/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz after close = %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(string(body), `"status":"unready"`) {
		t.Fatalf("/readyz after close = %s", body)
	}
}

// TestServeHTTPStatusByDatabaseState: request errors on a closed database
// are 503 (shutting down, retry elsewhere), on a broken one — the engine
// failed mid-apply — 500; neither is blamed on the client.
func TestServeHTTPStatusByDatabaseState(t *testing.T) {
	const divSrc = `
.decl in(x:number, y:number)
.decl q(z:number)
.input in
.output q
q(x / y) :- in(x, y).
`
	for _, c := range []struct {
		name string
		src  string
		mar  func(t *testing.T, db *sti.Database, srv *httptest.Server)
		want int
	}{
		{"closed", serveTC, func(t *testing.T, db *sti.Database, _ *httptest.Server) {
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
		}, http.StatusServiceUnavailable},
		{"broken", divSrc, func(t *testing.T, _ *sti.Database, srv *httptest.Server) {
			// Division by zero fails the engine mid-apply: that apply, and
			// every request after it, is a server error.
			if resp, body := post(t, srv, "/apply", "+in\t1\t0\n"); resp.StatusCode != http.StatusInternalServerError {
				t.Fatalf("breaking /apply = %d %s, want 500", resp.StatusCode, body)
			}
		}, http.StatusInternalServerError},
	} {
		t.Run(c.name, func(t *testing.T) {
			db, err := sti.MustParse(c.src).Open(sti.WithObservability(sti.ObservabilityConfig{}))
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			defer db.Close()
			srv := httptest.NewServer(serveMux(db))
			defer srv.Close()
			c.mar(t, db, srv)
			if ready := db.Ready(); (c.name == "closed") != errors.Is(ready, sti.ErrClosed) {
				t.Fatalf("Ready() = %v", ready)
			}
			rel := sti.MustParse(c.src).Relations()[0]
			if resp, body := get(t, srv, "/query?rel="+rel); resp.StatusCode != c.want {
				t.Fatalf("/query = %d %s, want %d", resp.StatusCode, body, c.want)
			}
			if resp, body := post(t, srv, "/apply", "+"+rel+"\t1\t2\n"); resp.StatusCode != c.want {
				t.Fatalf("/apply = %d %s, want %d", resp.StatusCode, body, c.want)
			}
			if resp, _ := get(t, srv, "/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("/readyz = %d, want 503", resp.StatusCode)
			}
		})
	}
}

// The /metrics payload must be well-formed Prometheus text exposition and
// reflect the traffic that produced it.
func TestServeHTTPMetricsExposition(t *testing.T) {
	db := openObsServeDB(t)
	srv := httptest.NewServer(serveMux(db))
	defer srv.Close()

	post(t, srv, "/apply", "+edge\t1\t2\n")
	get(t, srv, "/query?rel=path")
	get(t, srv, "/query") // 400: counted under a distinct code

	resp, body := get(t, srv, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("/metrics content type = %q", ct)
	}
	series, err := promtest.Validate(string(body))
	if err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, body)
	}
	for _, want := range []string{
		"sti_requests_total", "sti_request_duration_seconds_bucket",
		"sti_http_requests_total", "sti_db_epoch", "sti_relation_tuples",
		"sti_db_applies_total", "sti_goroutines", "sti_heap_alloc_bytes",
	} {
		if !series[want] {
			t.Fatalf("/metrics missing series %s:\n%s", want, body)
		}
	}
	text := string(body)
	for _, want := range []string{
		`sti_requests_total{op="apply",outcome="incremental"} 1`,
		`sti_http_requests_total{handler="/query",code="200"} 1`,
		`sti_http_requests_total{handler="/query",code="400"} 1`,
		`sti_relation_tuples{rel="edge"} 1`,
		"sti_db_epoch 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %s:\n%s", want, text)
		}
	}
}

// Queries keep serving the previous epoch while an Apply is in flight; run
// under -race this also proves the instrumented paths are data-race free.
func TestServeHTTPConcurrentApplyDuringQuery(t *testing.T) {
	db := openObsServeDB(t)
	srv := httptest.NewServer(serveMux(db))
	defer srv.Close()

	post(t, srv, "/apply", "+edge\t1\t2\n+edge\t2\t3\n")

	const queriers, rounds = 4, 25
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if resp, body := post(t, srv, "/apply", "+edge\t3\t4\n"); resp.StatusCode != http.StatusOK {
				t.Errorf("apply = %d: %s", resp.StatusCode, body)
				return
			}
			get(t, srv, "/readyz")
		}
	}()
	for q := 0; q < queriers; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				resp, body := get(t, srv, "/query?rel=path")
				if resp.StatusCode != http.StatusOK {
					t.Errorf("query = %d: %s", resp.StatusCode, body)
					return
				}
				get(t, srv, "/metrics")
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	st := db.Stats()
	if st.Requests == nil || st.Requests.InFlight != 0 {
		t.Fatalf("requests still in flight after the storm: %+v", st.Requests)
	}
}
