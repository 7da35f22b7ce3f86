package main

import (
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"time"

	"sti"
	"sti/internal/eio"
)

// maxApplyBody caps the body of one POST /apply. The body is read whole
// before the batch is staged, so without a cap one client could exhaust
// the daemon's memory; a larger body is refused with 413 and the database
// is untouched.
const maxApplyBody = 8 << 20

// serveMux exposes the database over HTTP:
//
//	POST /apply        absorb a batch of +/- lines (body, at most
//	                   maxApplyBody bytes), JSON result
//	GET  /query        ?rel=NAME&p=field... ("_" wildcard), JSON rows
//	GET  /stats        database stats as JSON
//	GET  /metrics      Prometheus text exposition (version 0.0.4)
//	GET  /healthz      liveness: 200 while the process serves
//	GET  /readyz       readiness: 200 while the engine phase machine is
//	                   ready, 503 once the database is closed or broken
//	GET  /debug/vars   expvar, including the sti.db stats blob
//
// Every handler runs under a middleware that assigns a request ID (honoring
// an inbound X-Request-Id), echoes it in the response header and in JSON
// error bodies, counts the request in sti_http_requests_total, and writes a
// structured access-log record.
func serveMux(db *sti.Database) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	handle := func(pattern string, h func(w http.ResponseWriter, r *http.Request, rid string)) {
		mux.Handle(pattern, instrument(db, pattern, h))
	}
	handle("/stats", func(w http.ResponseWriter, r *http.Request, rid string) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(db.Stats())
	})
	handle("/query", func(w http.ResponseWriter, r *http.Request, rid string) {
		rel := r.URL.Query().Get("rel")
		if rel == "" {
			httpError(w, rid, http.StatusBadRequest, errors.New("missing rel parameter"))
			return
		}
		rows, err := db.QueryText(rel, r.URL.Query()["p"])
		if err != nil {
			httpError(w, rid, statusFor(db, err), err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(rows)
	})
	handle("/apply", func(w http.ResponseWriter, r *http.Request, rid string) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			httpError(w, rid, http.StatusMethodNotAllowed, errors.New("POST only"))
			return
		}
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxApplyBody))
		if err != nil {
			status := http.StatusBadRequest
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				status = http.StatusRequestEntityTooLarge
				err = fmt.Errorf("batch body exceeds %d bytes: split it into several applies", maxApplyBody)
			}
			httpError(w, rid, status, err)
			return
		}
		batch := db.NewBatch()
		for i, line := range strings.Split(string(body), "\n") {
			if line != "" && !stageLine(batch, "body", i+1, line) {
				httpError(w, rid, http.StatusBadRequest,
					fmt.Errorf("bad line %q: want +rel or -rel", line))
				return
			}
		}
		staged := batch.Len()
		if err := db.Apply(batch); err != nil {
			httpError(w, rid, statusFor(db, err), err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{"epoch": db.Epoch(), "staged": staged})
	})
	handle("/metrics", func(w http.ResponseWriter, r *http.Request, rid string) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		db.WriteMetrics(w)
	})
	handle("/healthz", func(w http.ResponseWriter, r *http.Request, rid string) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	handle("/readyz", func(w http.ResponseWriter, r *http.Request, rid string) {
		w.Header().Set("Content-Type", "application/json")
		if err := db.Ready(); err != nil {
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(map[string]any{
				"status": "unready", "phase": db.Phase(), "error": err.Error(),
			})
			return
		}
		json.NewEncoder(w).Encode(map[string]any{
			"status": "ready", "phase": db.Phase(), "epoch": db.Epoch(),
		})
	})
	return mux
}

// instrument wraps a handler with the request-scoped plumbing: request ID,
// status capture, HTTP traffic counters, and the structured access log.
func instrument(db *sti.Database, pattern string, h func(w http.ResponseWriter, r *http.Request, rid string)) http.Handler {
	obs := db.Observer()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := r.Header.Get("X-Request-Id")
		if rid == "" {
			rid = obs.NextID() // "" when observability is off
		}
		if rid != "" {
			w.Header().Set("X-Request-Id", rid)
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		t0 := time.Now()
		h(sw, r, rid)
		obs.CountHTTP(pattern, sw.status)
		if logger := obs.Logger(); logger != nil {
			level := slog.LevelDebug
			if sw.status >= 400 {
				level = slog.LevelWarn
			}
			logger.LogAttrs(r.Context(), level, "http request",
				slog.String("request", rid),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", sw.status),
				slog.Duration("duration", time.Since(t0)))
		}
	})
}

// statusWriter captures the status code a handler wrote (200 if it never
// called WriteHeader).
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// errorBody is the JSON shape of every HTTP error response. Row errors from
// batch staging carry their typed position so clients can point at the
// offending byte of the body they posted.
type errorBody struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
	// Position of a *eio.RowError ("body" is the posted payload).
	Path string `json:"path,omitempty"`
	Line int    `json:"line,omitempty"`
	Col  int    `json:"col,omitempty"`
	Rel  string `json:"rel,omitempty"`
}

// httpError writes a JSON error response carrying the request ID and, for
// typed row errors, the path:line:col position.
func httpError(w http.ResponseWriter, rid string, status int, err error) {
	body := errorBody{Error: err.Error(), RequestID: rid}
	var re *eio.RowError
	if errors.As(err, &re) {
		body.Path = re.Path
		body.Line = re.Line
		body.Col = re.Col
		body.Rel = re.Rel
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
}

// statusFor maps a database error to an HTTP status: client mistakes (bad
// batches, unknown relations, malformed patterns) are 400s, a closed
// database is 503 (the process is shutting down), and a broken database —
// the engine failed mid-apply — is 500.
func statusFor(db *sti.Database, err error) int {
	var re *eio.RowError
	if errors.As(err, &re) {
		return http.StatusBadRequest
	}
	if ready := db.Ready(); ready != nil {
		if errors.Is(ready, sti.ErrClosed) {
			return http.StatusServiceUnavailable
		}
		return http.StatusInternalServerError
	}
	return http.StatusBadRequest
}
