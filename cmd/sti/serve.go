package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"sti"
)

// cmdServe keeps a program resident and answers a line protocol on stdin:
//
//	+rel<TAB>v1<TAB>v2...   stage a fact insertion
//	-rel<TAB>v1<TAB>v2...   stage a fact deletion
//	apply                   absorb the staged batch, print "applied epoch=N"
//	query rel[<TAB>p1...]   print matching rows ("_" field = wildcard),
//	                        then "ok N"
//	count rel               print the relation's size
//	stats                   print database stats as one JSON line
//	quit                    exit
//
// With -http, the same operations are served over HTTP (POST /apply with
// +/- lines as the body, GET /query?rel=NAME&p=..., GET /stats) alongside
// the operational endpoints: /metrics (Prometheus text exposition),
// /healthz, /readyz, and /debug/vars (expvar, including the sti.db blob).
//
// The server logs structured records to stderr (-log-format json|text):
// one access record per HTTP request carrying its request ID, and one
// warning with the engine profile for every database request slower than
// -slow. Stdout stays reserved for the line protocol.
//
// With -data, the database opens a durable data directory: every applied
// batch is WAL-logged before it mutates the engine, checkpoints roll the
// log into snapshots, and a restart (clean or after a crash) recovers the
// resident state from disk. SIGINT/SIGTERM trigger a graceful shutdown:
// the database closes first — taking a final checkpoint and flushing the
// WAL — which flips /readyz to 503, then the HTTP listener drains and the
// process exits.
func cmdServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	jobs := fs.Int("j", 1, "parallel workers for rule evaluation")
	httpAddr := fs.String("http", "", "also serve HTTP on this address (/apply, /query, /stats, /metrics, /healthz, /readyz, /debug/vars)")
	dataDir := fs.String("data", "", "durable data directory (WAL + snapshots); created if missing, recovered if present")
	snapEvery := fs.Int("snapshot-every", 0, "checkpoint after this many applies (0 = default cadence, negative = checkpoint only on open and close; needs -data)")
	fsync := fs.Bool("fsync", false, "fsync the WAL after every apply (durable against power loss, slower; needs -data)")
	logFormat := fs.String("log-format", "text", "structured log encoding: text | json")
	logLevel := fs.String("log-level", "info", "minimum log level: debug | info | warn | error (debug includes per-request access records)")
	slow := fs.Duration("slow", time.Second, "log requests slower than this with the engine profile (0 disables)")
	debug := debugFlag(fs)
	file := parseWithFile(fs, args, "usage: sti serve program.dl [-j N] [-http addr] [-data dir] [-snapshot-every N] [-fsync] [-log-format text|json] [-log-level info] [-slow 1s]")
	applyDebug(*debug)

	logger := newLogger(*logFormat, *logLevel)
	prog := parseFile(file)
	opts := []sti.Option{
		sti.WithWorkers(*jobs),
		sti.WithObservability(sti.ObservabilityConfig{Logger: logger, SlowRequest: *slow}),
	}
	if *dataDir != "" {
		opts = append(opts, sti.WithPersistenceConfig(sti.PersistenceConfig{
			Dir:           *dataDir,
			SnapshotEvery: *snapEvery,
			Fsync:         *fsync,
		}))
	} else if *snapEvery != 0 || *fsync {
		fatal(errors.New("-snapshot-every and -fsync require -data"))
	}
	db, err := prog.Open(opts...)
	if err != nil {
		fatal(err)
	}
	defer db.Close()
	if p := db.Stats().Persist; p != nil {
		logger.Info("data directory open", "dir", p.Dir, "generation", p.Generation,
			"recovered", p.Recovered, "recovered_wal_records", p.RecoveredRecords)
	}

	var srv *http.Server
	if *httpAddr != "" {
		expvar.Publish("sti.db", expvar.Func(func() any { return db.Stats() }))
		srv = &http.Server{Addr: *httpAddr, Handler: serveMux(db)}
		go func() {
			if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fatal(err)
			}
		}()
		logger.Info("serving http", "addr", *httpAddr, "program", file)
	}

	// SIGINT/SIGTERM shut the server down gracefully; a second signal during
	// the drain kills the process the default way.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		logger.Info("signal received, shutting down", "signal", sig.String())
		signal.Stop(sigc)
		shutdownServe(db, srv, logger)
		os.Exit(0)
	}()

	quit, err := serveLines(db, os.Stdin, os.Stdout)
	if err != nil {
		fatal(err)
	}
	// An explicit "quit" always ends the process. A closed stdin (the
	// normal state for a daemonized HTTP deployment, where stdin is
	// /dev/null) keeps the HTTP server running.
	if *httpAddr != "" && !quit {
		logger.Info("stdin closed, serving http only", "addr", *httpAddr)
		select {}
	}
	shutdownServe(db, srv, logger)
}

// shutdownServe is the single graceful-shutdown path: close the database
// first — on a durable deployment that takes the final checkpoint and
// flushes the WAL, and it flips /readyz to 503 either way — then drain the
// HTTP listener so in-flight responses complete. Idempotent, so the signal
// handler and the normal exit path can both call it.
var shutdownOnce sync.Once

func shutdownServe(db *sti.Database, srv *http.Server, logger *slog.Logger) {
	shutdownOnce.Do(func() {
		if err := db.Close(); err != nil {
			logger.Error("database close failed", "error", err)
		}
		if srv != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				logger.Warn("http shutdown incomplete", "error", err)
			}
		}
		logger.Info("shutdown complete")
	})
}

// newLogger builds the server's structured logger on stderr; stdout belongs
// to the line protocol.
func newLogger(format, level string) *slog.Logger {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		fatal(fmt.Errorf("unknown -log-level %q (have: debug, info, warn, error)", level))
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts))
	case "text", "":
		return slog.New(slog.NewTextHandler(os.Stderr, opts))
	default:
		fatal(fmt.Errorf("unknown -log-format %q (have: text, json)", format))
		return nil
	}
}

// serveLines drives the resident database from a line protocol. Errors in
// individual commands are reported as "error: ..." lines and do not stop
// the session; only I/O failures end it. The returned bool reports whether
// the session ended with an explicit quit/exit (as opposed to input EOF).
func serveLines(db *sti.Database, r io.Reader, w io.Writer) (bool, error) {
	out := bufio.NewWriter(w)
	defer out.Flush()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	batch := db.NewBatch()
	lineNo := 0
	for sc.Scan() {
		line := sc.Text()
		lineNo++
		if line == "" {
			continue
		}
		fields := strings.Split(line, "\t")
		head := fields[0]
		// Parse errors in +/- lines carry stdin:line:col positions (the
		// first field starts right after the "+rel<TAB>" prefix).
		switch {
		case strings.HasPrefix(head, "+"):
			batch.At("stdin", lineNo, len(head)+2).AddText(head[1:], fields[1:])
			if err := batch.Err(); err != nil {
				fmt.Fprintf(out, "error: %v\n", err)
				batch = db.NewBatch()
			}
		case strings.HasPrefix(head, "-"):
			batch.At("stdin", lineNo, len(head)+2).DeleteText(head[1:], fields[1:])
			if err := batch.Err(); err != nil {
				fmt.Fprintf(out, "error: %v\n", err)
				batch = db.NewBatch()
			}
		default:
			words := strings.Fields(head)
			if len(words) == 0 {
				continue
			}
			switch words[0] {
			case "apply":
				if err := db.Apply(batch); err != nil {
					fmt.Fprintf(out, "error: %v\n", err)
				} else {
					fmt.Fprintf(out, "applied epoch=%d\n", db.Epoch())
				}
				batch = db.NewBatch()
			case "query":
				if len(words) != 2 {
					fmt.Fprintln(out, "error: usage: query rel[<TAB>pattern...]")
					break
				}
				rows, err := db.QueryText(words[1], fields[1:])
				if err != nil {
					fmt.Fprintf(out, "error: %v\n", err)
					break
				}
				for _, row := range rows {
					fmt.Fprintln(out, strings.Join(row, "\t"))
				}
				fmt.Fprintf(out, "ok %d\n", len(rows))
			case "count":
				if len(words) != 2 {
					fmt.Fprintln(out, "error: usage: count rel")
					break
				}
				n, err := db.Size(words[1])
				if err != nil {
					fmt.Fprintf(out, "error: %v\n", err)
					break
				}
				fmt.Fprintf(out, "%d\n", n)
			case "stats":
				enc, err := json.Marshal(db.Stats())
				if err != nil {
					fmt.Fprintf(out, "error: %v\n", err)
					break
				}
				fmt.Fprintf(out, "%s\n", enc)
			case "quit", "exit":
				return true, out.Flush()
			default:
				fmt.Fprintf(out, "error: unknown command %q\n", words[0])
			}
		}
		if err := out.Flush(); err != nil {
			return false, err
		}
	}
	return false, sc.Err()
}
