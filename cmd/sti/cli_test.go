package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"sti"
)

// TestMain lets the test binary stand in for the sti executable: re-executed
// with STI_CLI_TEST=1 it runs main() on its arguments, so the CLI table below
// goes through the same dispatch, flag parsing and exit codes a user gets.
func TestMain(m *testing.M) {
	if os.Getenv("STI_CLI_TEST") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// cliProg has a symbol with an embedded comma (the -explain spec must not
// split inside the quotes), a folded constant (visible in `sti ram`), and a
// relation — side — no output depends on (it must stay explainable: the
// pipeline's pass set keeps every relation observable).
const cliProg = `
.decl r(a:symbol, b:symbol)
.decl s(a:symbol, b:symbol)
.decl side(x:number)
.decl n(x:number)
.input r
.input n
.output s
.printsize s
s(a, b) :- r(a, b).
s(a, c) :- s(a, b), r(b, c).
side(x) :- n(x), x > 0 + 0.
`

// Stdout and s.csv of `sti run` on cliProg as the parent commit printed
// them, identical for serial, worker and sharded runs.
const (
	cliStdout = "s\t3\n"
	cliCSV    = "a,b\tc\na,b\td\nc\td\n"
)

func TestCLI(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "q.dl")
	for name, content := range map[string]string{
		file:                          cliProg,
		filepath.Join(dir, "r.facts"): "a,b\tc\nc\td\n",
		filepath.Join(dir, "n.facts"): "1\n2\n",
	} {
		if err := os.WriteFile(name, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	prog := sti.MustParse(cliProg)
	emitted, err := prog.EmitGo()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prog.RAM(), "(t0.0 >:number 0)") {
		t.Fatalf("the pipeline did not fold 0 + 0:\n%s", prog.RAM())
	}

	sideProof := "side[1]  [side(x) :- n(x), x > (0 + 0).]\n  n[1]  [fact]\n"
	quotedProof := "s[a,b d]  [s(a, c) :- s(a, b), r(b, c). [delta@0]]\n" +
		"  s[a,b c]  [s(a, b) :- r(a, b).]\n    r[a,b c]  [fact]\n  r[c d]  [fact]\n"
	traceFile := filepath.Join(t.TempDir(), "q.trace.json")
	for _, c := range []struct {
		name string
		args []string // after the subcommand and program file
		sub  string   // subcommand, default run
		// stdout must equal want, or start with it when rest is set; rest
		// then checks what follows (the profile carries timings).
		want string
		rest func(t *testing.T, after string)
		exit int    // expected exit status
		errs string // text expected on stderr when exit is non-zero
	}{
		// What the CLI keeps: same stdout and files as the parent commit.
		{name: "default", want: cliStdout},
		{name: "workers", args: []string{"-j", "2"}, want: cliStdout},
		{name: "shards", args: []string{"-shards", "2"}, want: cliStdout},
		// ram and emit print what actually runs: the pipeline's program.
		{name: "ram", sub: "ram", want: prog.RAM()},
		{name: "emit", sub: "emit", want: string(emitted)},
		// A relation that reaches no .output is still explainable.
		{name: "explain-unobserved", args: []string{"-explain", "side(1)"}, want: cliStdout + sideProof},
		// Quoted symbols may contain the field separator.
		{name: "explain-quoted-comma", args: []string{"-explain", `s("a,b", "d")`}, want: cliStdout + quotedProof},
		{name: "explain-missing", args: []string{"-explain", "side(7)"}, want: cliStdout, exit: 1, errs: "not derivable"},
		{name: "explain-bad-spec", args: []string{"-explain", "side"}, want: cliStdout, exit: 1, errs: "bad tuple spec"},
		// sti profile is the one profiling front door: same run, plus the
		// per-rule profile and the telemetry as JSON, and the span trace.
		{name: "profile", sub: "profile", args: []string{"-q", "-json", "-"}, want: cliStdout, rest: checkProfileJSON},
		{name: "profile-trace", sub: "profile", args: []string{"-q", "-trace", traceFile}, want: cliStdout,
			rest: func(t *testing.T, after string) { checkTraceFile(t, after, traceFile) }},
		// The engine runs in one configuration: the switches that selected
		// another backend or an ablation are usage errors.
		{name: "interp", args: []string{"-backend", "interp"}, exit: 2, errs: "not defined: -backend"},
		{name: "compiled", args: []string{"-backend", "compiled"}, exit: 2, errs: "not defined: -backend"},
		{name: "legacy", args: []string{"-backend", "legacy"}, exit: 2, errs: "not defined: -backend"},
		{name: "unknown-backend", args: []string{"-backend", "jit"}, exit: 2, errs: "not defined: -backend"},
		{name: "no-super", args: []string{"-no-super"}, exit: 2, errs: "not defined: -no-super"},
		{name: "no-static", args: []string{"-no-static"}, exit: 2, errs: "not defined: -no-static"},
		{name: "no-reorder", args: []string{"-no-reorder"}, exit: 2, errs: "not defined: -no-reorder"},
		{name: "run-profile", args: []string{"-profile"}, exit: 2, errs: "not defined: -profile"},
		{name: "compiled-explain", args: []string{"-backend", "compiled", "-explain", "side(1)"}, exit: 2, errs: "not defined: -backend"},
		{name: "compiled-profile", args: []string{"-backend", "compiled", "-profile"}, exit: 2, errs: "not defined: -backend"},
		{name: "trace-cap", sub: "profile", args: []string{"-trace-cap", "10"}, exit: 2, errs: "not defined: -trace-cap"},
	} {
		t.Run(c.name, func(t *testing.T) {
			sub := c.sub
			if sub == "" {
				sub = "run"
			}
			out := t.TempDir()
			args := []string{sub, file}
			if sub == "run" || sub == "profile" {
				args = append(args, "-F", dir, "-D", out)
			}
			cmd := exec.Command(os.Args[0], append(args, c.args...)...)
			cmd.Env = append(os.Environ(), "STI_CLI_TEST=1")
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			if c.exit != 0 {
				if cmd.ProcessState == nil || cmd.ProcessState.ExitCode() != c.exit || !strings.Contains(stderr.String(), c.errs) {
					t.Fatalf("want exit %d with %q on stderr, got %v\nstdout: %s\nstderr: %s", c.exit, c.errs, err, &stdout, &stderr)
				}
			} else if err != nil {
				t.Fatalf("%v\nstderr: %s", err, &stderr)
			}
			got := stdout.String()
			if c.rest != nil && strings.HasPrefix(got, c.want) {
				c.rest(t, got[len(c.want):])
			} else if got != c.want {
				t.Fatalf("stdout:\n%s\nwant:\n%s", got, c.want)
			}
			if strings.HasPrefix(c.want, cliStdout) { // the run wrote its outputs
				csv, err := os.ReadFile(filepath.Join(out, "s.csv"))
				if err != nil || string(csv) != cliCSV {
					t.Fatalf("s.csv = %q (%v), want %q", csv, err, cliCSV)
				}
			}
		})
	}
}

// checkProfileJSON checks `sti profile -json -` output: the envelope carries
// the per-rule profile and the engine telemetry.
func checkProfileJSON(t *testing.T, out string) {
	var doc struct {
		Program string `json:"program"`
		Profile struct {
			Rules     []map[string]any `json:"rules"`
			Telemetry *struct {
				Relations []map[string]any `json:"relations"`
				Fixpoints []map[string]any `json:"fixpoints"`
			} `json:"telemetry"`
		} `json:"profile"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("profile JSON: %v\n%s", err, out)
	}
	if len(doc.Profile.Rules) == 0 || doc.Profile.Telemetry == nil ||
		len(doc.Profile.Telemetry.Relations) == 0 || len(doc.Profile.Telemetry.Fixpoints) == 0 {
		t.Fatalf("profile JSON lacks profile.rules or profile.telemetry:\n%s", out)
	}
}

// checkTraceFile checks that `sti profile -trace f` wrote Chrome
// trace-event JSON holding the run's spans, and printed nothing else.
func checkTraceFile(t *testing.T, after, path string) {
	if after != "" {
		t.Fatalf("unexpected stdout after the run: %q", after)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("trace JSON: %v\n%s", err, data)
	}
	names := map[string]bool{}
	for _, ev := range trace.TraceEvents {
		names[ev.Name] = true
	}
	if !names["run"] || !names["s(a, b) :- r(a, b)."] {
		t.Fatalf("trace lacks the run span or a rule span: %v", names)
	}
}

func TestSplitFields(t *testing.T) {
	for _, c := range []struct {
		body string
		want []string
	}{
		{"", nil},
		{"  ", nil},
		{"1", []string{"1"}},
		{"1, 2 ,3", []string{"1", "2", "3"}},
		{`"a,b","d"`, []string{`"a,b"`, `"d"`}},
		{`"a\",b", c`, []string{`"a\",b"`, "c"}},
		{"a,", []string{"a", ""}},
	} {
		got := splitFields(c.body)
		if strings.Join(got, "|") != strings.Join(c.want, "|") || len(got) != len(c.want) {
			t.Errorf("splitFields(%q) = %q, want %q", c.body, got, c.want)
		}
	}
}
