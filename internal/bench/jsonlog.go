package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// BenchRecord is one machine-readable benchmark measurement. All experiments
// normalize into this shape so downstream tooling (regression tracking, CI
// artifact diffing) parses one schema.
type BenchRecord struct {
	Workload string `json:"workload"`
	// Variant names the engine or configuration measured: "interp",
	// "compiled", "legacy", an ablation ("no-super"), a store ("brie"), or a
	// parallel configuration ("2-workers", "2-shards").
	Variant string `json:"variant,omitempty"`
	Workers int    `json:"workers,omitempty"`
	WallNs  int64  `json:"wall_ns"`
	// Tuples is the total tuple count after the run (all relations);
	// TuplesPerSec is Tuples scaled by wall time. Zero when the experiment
	// does not track tuple counts.
	Tuples       int     `json:"tuples,omitempty"`
	TuplesPerSec float64 `json:"tuples_per_sec,omitempty"`
	// Ratio carries the experiment's derived metric (slowdown, relative
	// runtime, compile/run ratio) when it has one.
	Ratio float64 `json:"ratio,omitempty"`
}

// BenchLog is the envelope of one benchmark invocation: enough metadata to
// compare runs across machines and revisions.
type BenchLog struct {
	Experiment string        `json:"experiment"`
	Scale      string        `json:"scale"`
	Repeats    int           `json:"repeats"`
	GitRev     string        `json:"git_rev,omitempty"`
	GoVersion  string        `json:"go_version"`
	GOOS       string        `json:"goos"`
	GOARCH     string        `json:"goarch"`
	CPUs       int           `json:"cpus"`
	Timestamp  string        `json:"timestamp"`
	Records    []BenchRecord `json:"records"`
}

// NewBenchLog stamps an envelope with the environment metadata.
func NewBenchLog(experiment string, scale Scale, repeats int) *BenchLog {
	return &BenchLog{
		Experiment: experiment,
		Scale:      scale.String(),
		Repeats:    repeats,
		GitRev:     gitRev(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUs:       runtime.NumCPU(),
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
	}
}

// gitRev reports the current commit (short hash, "-dirty" suffixed), or ""
// outside a git checkout.
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	rev := strings.TrimSpace(string(out))
	if err := exec.Command("git", "diff", "--quiet", "HEAD").Run(); err != nil {
		rev += "-dirty"
	}
	return rev
}

// WriteJSON writes the log as BENCH_<experiment>.json under dir, creating
// dir if needed, and returns the file path.
func (l *BenchLog) WriteJSON(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("BENCH_%s.json", l.Experiment))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(l); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// Fig15Records converts Fig 15 rows: one record per engine per workload.
func Fig15Records(rows []Fig15Row) []BenchRecord {
	var out []BenchRecord
	for _, r := range rows {
		out = append(out,
			BenchRecord{Workload: r.Workload, Variant: "compiled", WallNs: r.Compiled.Nanoseconds()},
			BenchRecord{Workload: r.Workload, Variant: "interp", WallNs: r.Interp.Nanoseconds(), Ratio: r.Slowdown})
		if r.Legacy > 0 {
			out = append(out, BenchRecord{Workload: r.Workload, Variant: "legacy", WallNs: r.Legacy.Nanoseconds(), Ratio: r.LegacyX})
		}
	}
	return out
}

// AblationRecords converts ablation rows: optimized and baseline variants.
func AblationRecords(rows []AblationRow) []BenchRecord {
	var out []BenchRecord
	for _, r := range rows {
		out = append(out,
			BenchRecord{Workload: r.Workload, Variant: "optimized", WallNs: r.Base.Nanoseconds(), Ratio: r.Relative},
			BenchRecord{Workload: r.Workload, Variant: "baseline", WallNs: r.Variant.Nanoseconds()})
	}
	return out
}

// Fig16Records converts the per-rule case study: one record per rule, the
// workload field carrying the rule label.
func Fig16Records(rows []Fig16Row) []BenchRecord {
	var out []BenchRecord
	for _, r := range rows {
		out = append(out,
			BenchRecord{Workload: r.Label, Variant: "interp", WallNs: r.Interp.Nanoseconds(), Ratio: r.Slowdown},
			BenchRecord{Workload: r.Label, Variant: "compiled", WallNs: r.Compiled.Nanoseconds()})
	}
	return out
}

// Table1Records converts Table 1 rows; the synthesizer side reports the full
// gen+build+run pipeline wall time.
func Table1Records(rows []Table1Row) []BenchRecord {
	var out []BenchRecord
	for _, r := range rows {
		synth := r.SynthGen + r.SynthBld + r.SynthRun
		out = append(out,
			BenchRecord{Workload: r.Workload, Variant: "synthesized", WallNs: synth.Nanoseconds(), Ratio: r.Ratio},
			BenchRecord{Workload: r.Workload, Variant: "interp", WallNs: r.InterpRun.Nanoseconds()})
	}
	return out
}
