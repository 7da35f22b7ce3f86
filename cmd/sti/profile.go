package main

import (
	"encoding/json"
	_ "expvar"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"time"

	"sti"
)

// profileFile is the JSON envelope of `sti profile -json`: the per-rule
// profile plus the engine-wide telemetry snapshot, stamped with enough
// metadata to compare runs.
type profileFile struct {
	Program string       `json:"program"`
	Workers int          `json:"workers"`
	WallNs  int64        `json:"wall_ns"`
	Profile *sti.Profile `json:"profile"`
}

// cmdProfile runs a program like `sti run` but instrumented (sti.WithProfiling):
// per-rule counters, per-relation/index traffic, fixpoint convergence
// curves, and parallel-worker statistics. -json writes the machine-readable
// report; -trace writes Chrome trace-event JSON (loadable in Perfetto or
// chrome://tracing); -http serves expvar and net/http/pprof for the duration
// of the run.
func cmdProfile(args []string) {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	facts := fs.String("F", ".", "input facts directory")
	out := fs.String("D", ".", "output directory")
	jsonOut := fs.String("json", "", "write profile + telemetry as JSON to this file (- for stdout)")
	traceOut := fs.String("trace", "", "write span trace as Chrome trace-event JSON to this file")
	httpAddr := fs.String("http", "", "serve expvar and net/http/pprof on this address during the run, e.g. :6060")
	jobs := fs.Int("j", 1, "parallel workers for rule evaluation")
	quiet := fs.Bool("q", false, "suppress the human-readable summary on stderr")
	debug := debugFlag(fs)
	file := parseWithFile(fs, args, "usage: sti profile program.dl [-json out.json] [-trace out.trace.json] [flags]")
	applyDebug(*debug)

	prog := parseFile(file)

	if *httpAddr != "" {
		go func() {
			if err := http.ListenAndServe(*httpAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "sti: -http %s: %v\n", *httpAddr, err)
			}
		}()
	}

	start := time.Now()
	res, err := prog.RunDir(*facts, *out, sti.WithWorkers(*jobs), sti.WithProfiling())
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
			Workers: *jobs,
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
		if err := res.WriteTrace(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "trace: %d events\n", profile.Telemetry.TraceEvents)
		}
	}
}
