package main

import (
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"time"

	"sti"
	"sti/internal/interp"
	"sti/internal/metrics"
)

// profileFile is the JSON envelope of `sti profile -json`: the per-rule
// profile plus the engine-wide telemetry snapshot, stamped with enough
// metadata to compare runs.
type profileFile struct {
	Program string          `json:"program"`
	Workers int             `json:"workers"`
	WallNs  int64           `json:"wall_ns"`
	Profile *interp.Profile `json:"profile"`
}

// cmdProfile runs a program like `sti run` but with the profiler and the
// telemetry collector armed: per-rule counters, per-relation/index traffic,
// fixpoint convergence curves, and parallel-worker statistics. -json writes
// the machine-readable report; -trace writes Chrome trace-event JSON
// (loadable in Perfetto or chrome://tracing); -http serves expvar (with a
// live sti.telemetry snapshot) and net/http/pprof for the duration of the
// run.
func cmdProfile(args []string) {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	facts := fs.String("F", ".", "input facts directory")
	out := fs.String("D", ".", "output directory")
	jsonOut := fs.String("json", "", "write profile + telemetry as JSON to this file (- for stdout)")
	traceOut := fs.String("trace", "", "write span trace as Chrome trace-event JSON to this file")
	traceCap := fs.Int("trace-cap", 0, fmt.Sprintf("max recorded trace events (default %d)", metrics.DefaultTraceCap))
	httpAddr := fs.String("http", "", "serve expvar and net/http/pprof on this address during the run, e.g. :6060")
	jobs := fs.Int("j", 1, "parallel workers for rule evaluation")
	quiet := fs.Bool("q", false, "suppress the human-readable summary on stderr")
	debug := debugFlag(fs)
	file := parseWithFile(fs, args, "usage: sti profile program.dl [-json out.json] [-trace out.trace.json] [flags]")
	applyDebug(*debug)

	prog := parseFile(file)

	tel := metrics.New()
	if *traceOut != "" {
		tel.EnableTrace(*traceCap)
	}
	cfg := interp.DefaultConfig()
	cfg.Profile = true
	cfg.Workers = *jobs
	cfg.Metrics = tel

	if *httpAddr != "" {
		expvar.Publish("sti.telemetry", expvar.Func(func() any { return tel.Report() }))
		go func() {
			if err := http.ListenAndServe(*httpAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "sti: -http %s: %v\n", *httpAddr, err)
			}
		}()
	}

	start := time.Now()
	res, err := prog.RunDir(*facts, *out, sti.WithInterpreterConfig(cfg))
	if err != nil {
		fatal(err)
	}
	wall := time.Since(start)

	profile := res.Profile()
	if !*quiet {
		fmt.Fprint(os.Stderr, profile.String())
		fmt.Fprint(os.Stderr, profile.Telemetry.String())
	}

	if *jsonOut != "" {
		w := os.Stdout
		if *jsonOut != "-" {
			f, err := os.Create(*jsonOut)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			w = f
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(profileFile{
			Program: file,
			Workers: cfg.Workers,
			WallNs:  wall.Nanoseconds(),
			Profile: profile,
		}); err != nil {
			fatal(err)
		}
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := tel.WriteTrace(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		kept, dropped := tel.TraceEventCount()
		if !*quiet {
			fmt.Fprintf(os.Stderr, "trace: %d events", kept)
			if dropped > 0 {
				fmt.Fprintf(os.Stderr, " (%d dropped past cap)", dropped)
			}
			fmt.Fprintln(os.Stderr)
		}
	}
}
