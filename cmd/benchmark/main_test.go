package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark executable:
// re-executed with STI_CLI_TEST=1 it runs main() on its arguments, so the
// cases below see the exit codes a script sees.
func TestMain(m *testing.M) {
	if os.Getenv("STI_CLI_TEST") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestExperimentSelection: a -fig or -table value that names no experiment
// is a usage error, not a run that measures nothing and succeeds.
func TestExperimentSelection(t *testing.T) {
	cases := []struct {
		args []string
		code int
		out  string // substring of stdout on success
	}{
		{[]string{"-fig", "resident"}, 2, ""},
		{[]string{"-fig", "17"}, 2, ""},
		{[]string{"-table", "2"}, 2, ""},
		{[]string{"-fig", "16", "-table", "2"}, 2, ""},
		{nil, 2, ""},
		{[]string{"-fig", "16"}, 0, "Fig 16"},
	}
	for _, c := range cases {
		cmd := exec.Command(os.Args[0], c.args...)
		cmd.Env = append(os.Environ(), "STI_CLI_TEST=1")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		code := 0
		if err := cmd.Run(); err != nil {
			var exit *exec.ExitError
			if !errors.As(err, &exit) {
				t.Fatalf("%v: %v", c.args, err)
			}
			code = exit.ExitCode()
		}
		if code != c.code || !strings.Contains(stdout.String(), c.out) {
			t.Errorf("benchmark %v: exit %d, want %d\nstdout: %s\nstderr: %s", c.args, code, c.code, stdout.String(), stderr.String())
		}
	}
}
