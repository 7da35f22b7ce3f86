package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// env holds the directories a run works in. Everything the benchmark writes
// lives under <perfbench>/out, which .gitignore names.
type env struct {
	benchDir string // the perfbench module directory
	repoDir  string // its parent: the sti module
	outDir   string // <benchDir>/out
	sti      string // the sti binary built for this run
	buildS   float64
}

// newEnv locates the module from the working directory (run.sh starts the
// program in the perfbench directory) and builds cmd/sti. The build is
// untimed: build_s is printed for information and is no metric, because it
// measures the state of the Go build cache, not this program.
func newEnv() (*env, error) {
	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	mod, err := os.ReadFile(filepath.Join(wd, "go.mod"))
	if err != nil || !strings.Contains(string(mod), "module sti/perfbench") {
		return nil, fmt.Errorf("run from the perfbench directory, as perfbench/run.sh does")
	}
	e := &env{benchDir: wd, repoDir: filepath.Dir(wd), outDir: filepath.Join(wd, "out")}
	e.sti = filepath.Join(e.outDir, "bin", "sti")
	if err := os.MkdirAll(filepath.Dir(e.sti), 0o755); err != nil {
		return nil, err
	}
	t0 := time.Now()
	build := exec.Command("go", "build", "-o", e.sti, "./cmd/sti")
	build.Dir = e.repoDir
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build ./cmd/sti: %v\n%s", err, out)
	}
	e.buildS = time.Since(t0).Seconds()
	return e, nil
}

// workDir creates a fresh scratch directory under out/.
func (e *env) workDir(name string) (string, error) {
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(e.outDir, name+"-")
}

// childEnv is the environment of every sti child: the caller's, with
// GOMAXPROCS pinned and GOGC, GODEBUG and GOMEMLIMIT removed so the Go
// defaults apply.
func childEnv() []string {
	var out []string
	for _, kv := range os.Environ() {
		switch strings.SplitN(kv, "=", 2)[0] {
		case "GOMAXPROCS", "GOGC", "GODEBUG", "GOMEMLIMIT":
		default:
			out = append(out, kv)
		}
	}
	return append(out, fmt.Sprintf("GOMAXPROCS=%d", childProcs))
}

// usage is what the kernel accounted to one finished child.
type usage struct {
	wallS float64 // exec to exit
	cpuS  float64 // user + system
	rssMB float64 // peak resident set
}

// usageOf reads wall and CPU time of a finished child. Its peak resident set
// comes from peakRSS while it was alive, not from ru_maxrss: os/exec starts
// children with vfork, and on exec Linux folds the old address space's
// high-water mark — the benchmark's own, hundreds of megabytes once it has
// generated inputs and evaluated the reference — into the child's ru_maxrss,
// which therefore reads the same on every run of a small child.
func usageOf(st *os.ProcessState, wall time.Duration, rssMB float64) usage {
	return usage{wallS: wall.Seconds(), cpuS: (st.UserTime() + st.SystemTime()).Seconds(), rssMB: rssMB}
}

// peakRSS reads a live process's resident high-water mark (VmHWM, of the
// address space it exec'd into) in MiB.
func peakRSS(pid int) (float64, bool) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err == nil
		}
	}
	return 0, false
}

// rssPoll is how often a batch child's VmHWM is sampled. The mark only ever
// rises, so the last sample before exit misses at most the growth of the
// final 20 ms.
const rssPoll = 20 * time.Millisecond

// runToExit runs one child to completion and returns its standard output.
func runToExit(bin, dir string, args ...string) (usage, string, error) {
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	cmd.Env = childEnv()
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return usage{}, "", err
	}
	stop, peak := make(chan struct{}), make(chan float64)
	go func() {
		tick := time.NewTicker(rssPoll)
		defer tick.Stop()
		mb, _ := peakRSS(cmd.Process.Pid) // Start returns after the exec
		for {
			select {
			case <-stop:
				peak <- mb
				return
			case <-tick.C:
				if v, ok := peakRSS(cmd.Process.Pid); ok {
					mb = v
				}
			}
		}
	}()
	err := cmd.Wait()
	wall := time.Since(t0)
	close(stop)
	rssMB := <-peak
	if err != nil {
		return usage{}, "", fmt.Errorf("%s %s: %v\n%s", filepath.Base(bin), strings.Join(args, " "), err, stderr.String())
	}
	return usageOf(cmd.ProcessState, wall, rssMB), stdout.String(), nil
}
