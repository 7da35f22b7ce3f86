package main

import (
	"bytes"
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
// them, identical for every backend and interpreter configuration.
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
	for _, c := range []struct {
		name string
		args []string // after the subcommand and program file
		sub  string   // subcommand, default run
		// stdout must equal want, or start with it when prefix is set (the
		// profile carries timings).
		want   string
		prefix bool
		fails  string // non-empty: exit status 1 and this text on stderr
	}{
		// What the CLI keeps: same stdout and files as the parent commit.
		{name: "default", want: cliStdout},
		{name: "interp", args: []string{"-backend", "interp"}, want: cliStdout},
		{name: "compiled", args: []string{"-backend", "compiled"}, want: cliStdout},
		{name: "legacy", args: []string{"-backend", "legacy"}, want: cliStdout},
		{name: "workers", args: []string{"-j", "2"}, want: cliStdout},
		{name: "shards", args: []string{"-shards", "2"}, want: cliStdout},
		{name: "no-super", args: []string{"-no-super"}, want: cliStdout},
		{name: "no-static", args: []string{"-no-static"}, want: cliStdout},
		{name: "no-reorder", args: []string{"-no-reorder"}, want: cliStdout},
		{name: "profile", args: []string{"-profile"}, want: cliStdout + "total dispatches: ", prefix: true},
		// ram and emit print what actually runs: the pipeline's program.
		{name: "ram", sub: "ram", want: prog.RAM()},
		{name: "emit", sub: "emit", want: string(emitted)},
		// A relation that reaches no .output is still explainable.
		{name: "explain-unobserved", args: []string{"-explain", "side(1)"}, want: cliStdout + sideProof},
		// Quoted symbols may contain the field separator.
		{name: "explain-quoted-comma", args: []string{"-explain", `s("a,b", "d")`}, want: cliStdout + quotedProof},
		// The compiled backend records neither derivations nor a profile:
		// asking for them is an error, not silence.
		{name: "compiled-explain", args: []string{"-backend", "compiled", "-explain", "side(1)"},
			want: cliStdout, fails: "run without WithProvenance cannot explain"},
		{name: "compiled-profile", args: []string{"-backend", "compiled", "-profile"},
			want: cliStdout, fails: "no profile"},
		{name: "explain-missing", args: []string{"-explain", "side(7)"}, want: cliStdout, fails: "not derivable"},
		{name: "explain-bad-spec", args: []string{"-explain", "side"}, want: cliStdout, fails: "bad tuple spec"},
		{name: "unknown-backend", args: []string{"-backend", "jit"}, fails: `unknown backend "jit"`},
	} {
		t.Run(c.name, func(t *testing.T) {
			sub := c.sub
			if sub == "" {
				sub = "run"
			}
			out := t.TempDir()
			args := []string{sub, file}
			if sub == "run" {
				args = append(args, "-F", dir, "-D", out)
			}
			cmd := exec.Command(os.Args[0], append(args, c.args...)...)
			cmd.Env = append(os.Environ(), "STI_CLI_TEST=1")
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			if c.fails != "" {
				if cmd.ProcessState == nil || cmd.ProcessState.ExitCode() != 1 || !strings.Contains(stderr.String(), c.fails) {
					t.Fatalf("want exit 1 with %q on stderr, got %v\nstdout: %s\nstderr: %s", c.fails, err, &stdout, &stderr)
				}
			} else if err != nil {
				t.Fatalf("%v\nstderr: %s", err, &stderr)
			}
			if got := stdout.String(); got != c.want && !(c.prefix && strings.HasPrefix(got, c.want)) {
				t.Fatalf("stdout:\n%s\nwant:\n%s", got, c.want)
			}
			if sub == "run" && c.want != "" {
				csv, err := os.ReadFile(filepath.Join(out, "s.csv"))
				if err != nil || string(csv) != cliCSV {
					t.Fatalf("s.csv = %q (%v), want %q", csv, err, cliCSV)
				}
			}
		})
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
