// Command sti runs Datalog programs with the Soufflé Tree Interpreter.
//
//	sti run program.dl -F facts/ -D out/       interpret a program
//	sti run program.dl -backend compiled       use the closure compiler
//	sti profile program.dl -json p.json        run with telemetry: rule and
//	                                           relation counters, fixpoint
//	                                           curves, -trace span output
//	sti ram program.dl                         print the RAM program
//	sti emit program.dl -o gen/prog            synthesize standalone Go
//	sti vet examples/ prog.dl                  verify RAM without executing
//	sti lint examples/ prog.dl                 source diagnostics: unused
//	                                           relations, singleton variables,
//	                                           unreachable rules, ...
//	sti serve program.dl [-http addr]          keep the program resident:
//	                                           apply fact batches and query
//	                                           over stdin lines or HTTP, with
//	                                           /metrics, /healthz, /readyz,
//	                                           and structured request logs
//	                                           (-log-format json, -slow 1s)
//	sti serve program.dl -data dir             same, durably: WAL + snapshot
//	                                           checkpoints in dir, crash and
//	                                           restart recovery, graceful
//	                                           SIGINT/SIGTERM shutdown
//	                                           (-snapshot-every N, -fsync)
//
// Input relations read <name>.facts (tab-separated) from -F; output
// relations write <name>.csv to -D; .printsize writes to stdout.
//
// All execution modes take -d ramverify (or STI_DEBUG=ramverify) to
// re-verify the RAM program after every transformation stage.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"sti"
	"sti/internal/interp"
	"sti/internal/ram/verify"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "run":
		cmdRun(os.Args[2:])
	case "profile":
		cmdProfile(os.Args[2:])
	case "ram":
		cmdRAM(os.Args[2:])
	case "emit":
		cmdEmit(os.Args[2:])
	case "vet":
		cmdVet(os.Args[2:])
	case "lint":
		cmdLint(os.Args[2:])
	case "serve":
		cmdServe(os.Args[2:])
	default:
		usage()
	}
}

// debugFlag registers the shared -d option; each comma- or space-separated
// name enables one debug facility ("ramverify" arms the RAM verifier at
// every pipeline stage, "all" enables everything).
func debugFlag(fs *flag.FlagSet) *string {
	return fs.String("d", "", "debug facilities to enable, e.g. -d ramverify")
}

func applyDebug(spec string) {
	for _, name := range strings.FieldsFunc(spec, func(r rune) bool { return r == ',' || r == ' ' }) {
		switch name {
		case "ramverify", "all":
			verify.SetDebug(true)
		default:
			fatal(fmt.Errorf("unknown debug facility %q (have: ramverify, all)", name))
		}
	}
}

// parseWithFile parses "FILE [flags]" or "[flags] FILE", returning the file.
func parseWithFile(fs *flag.FlagSet, args []string, usageLine string) string {
	var file string
	if len(args) > 0 && len(args[0]) > 0 && args[0][0] != '-' {
		file = args[0]
		args = args[1:]
	}
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	if file == "" && fs.NArg() == 1 {
		file = fs.Arg(0)
	}
	if file == "" || fs.NArg() > 1 {
		fmt.Fprintln(os.Stderr, usageLine)
		fs.PrintDefaults()
		os.Exit(2)
	}
	return file
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: sti {run|profile|ram|emit|vet|lint|serve} program.dl [flags]")
	os.Exit(2)
}

func fatal(err error) {
	// The root package's errors already carry the "sti: " prefix.
	fmt.Fprintln(os.Stderr, "sti:", strings.TrimPrefix(err.Error(), "sti: "))
	os.Exit(1)
}

// parseFile runs a source file through the compilation pipeline. Every
// subcommand that executes or prints a program starts here; sti.Parse is
// the only place the stages are chained.
func parseFile(path string) *sti.Program {
	src, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	prog, err := sti.Parse(string(src))
	if err != nil {
		fatal(fmt.Errorf("%s:%v", path, err))
	}
	return prog
}

func cmdRun(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	facts := fs.String("F", ".", "input facts directory")
	out := fs.String("D", ".", "output directory")
	backend := fs.String("backend", "interp", "execution backend: interp | compiled | legacy")
	profile := fs.Bool("profile", false, "print the interpreter profile")
	noSuper := fs.Bool("no-super", false, "disable super-instructions")
	noStatic := fs.Bool("no-static", false, "disable specialized instructions (dynamic adapter)")
	noReorder := fs.Bool("no-reorder", false, "disable static tuple reordering")
	timing := fs.Bool("time", false, "print wall-clock time")
	jobs := fs.Int("j", 1, "parallel workers for rule evaluation")
	shards := fs.Int("shards", 0, "hash-partition relations into N shards (shard-parallel fixpoint; interp backend)")
	explain := fs.String("explain", "", "after the run, print the derivation of a tuple, e.g. 'path(1,3)'")
	debug := debugFlag(fs)
	file := parseWithFile(fs, args, "usage: sti run program.dl [flags]")
	applyDebug(*debug)
	prog := parseFile(file)

	opts := []sti.Option{sti.WithWorkers(*jobs), sti.WithShards(*shards)}
	switch *backend {
	case "compiled":
		opts = append(opts, sti.WithBackend(sti.Compiled))
	case "legacy":
		opts = append(opts, sti.WithLegacyInterpreter())
	case "interp":
		cfg := interp.DefaultConfig()
		cfg.SuperInstructions = !*noSuper
		cfg.StaticDispatch = !*noStatic
		cfg.StaticReordering = !*noReorder
		opts = append(opts, sti.WithInterpreterConfig(cfg))
	default:
		fatal(fmt.Errorf("unknown backend %q", *backend))
	}
	if *profile {
		opts = append(opts, sti.WithProfiling())
	}
	if *explain != "" {
		opts = append(opts, sti.WithProvenance())
	}

	start := time.Now()
	res, err := prog.RunDir(*facts, *out, opts...)
	if err != nil {
		fatal(err)
	}
	if *profile {
		p := res.Profile()
		if p == nil {
			fatal(errors.New("no profile: -profile needs the interpreter backend"))
		}
		fmt.Print(p.String())
	}
	if *explain != "" {
		if err := printExplanation(res, *explain); err != nil {
			fatal(err)
		}
	}
	if *timing {
		fmt.Fprintf(os.Stderr, "total time: %v\n", time.Since(start))
	}
}

func cmdRAM(args []string) {
	fs := flag.NewFlagSet("ram", flag.ExitOnError)
	debug := debugFlag(fs)
	file := parseWithFile(fs, args, "usage: sti ram program.dl")
	applyDebug(*debug)
	fmt.Print(parseFile(file).RAM())
}

func cmdEmit(args []string) {
	fs := flag.NewFlagSet("emit", flag.ExitOnError)
	out := fs.String("o", "", "output directory for main.go (default: print to stdout)")
	build := fs.Bool("build", false, "also compile the emitted program (requires running inside the sti module)")
	debug := debugFlag(fs)
	file := parseWithFile(fs, args, "usage: sti emit program.dl [-o dir] [-build]")
	applyDebug(*debug)
	src, err := parseFile(file).EmitGo()
	if err != nil {
		fatal(err)
	}
	if *out == "" {
		os.Stdout.Write(src)
		return
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	path := filepath.Join(*out, "main.go")
	if err := os.WriteFile(path, src, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	if *build {
		bin := filepath.Join(*out, "prog")
		start := time.Now()
		if msg, err := exec.Command("go", "build", "-o", bin, path).CombinedOutput(); err != nil {
			fatal(fmt.Errorf("go build failed: %v\n%s", err, msg))
		}
		fmt.Fprintf(os.Stderr, "built %s in %v\n", bin, time.Since(start))
	}
}
