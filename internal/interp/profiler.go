package interp

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"sti/internal/metrics"
)

// RuleProfile is the profiler record for one rule version (the analog of
// Soufflé's profiler output used in the paper's §5.2 case study). It
// marshals to JSON for machine-readable profiles; Time serializes as
// nanoseconds (time.Duration's native encoding).
type RuleProfile struct {
	RuleID     int           `json:"rule_id"`
	Label      string        `json:"label"`
	Time       time.Duration `json:"time_ns"`
	Iterations uint64        `json:"iterations"` // tuples visited by this rule's scans
	Dispatches uint64        `json:"dispatches"` // execute() calls made while running the rule
	Inserts    uint64        `json:"inserts"`    // tuples newly inserted
	Attempts   uint64        `json:"attempts"`   // insert attempts, duplicates included
	Dedup      uint64        `json:"dedup"`      // attempts rejected as duplicates
}

// Profile is a completed profiling report.
type Profile struct {
	Rules           []RuleProfile `json:"rules"`
	TotalDispatches uint64        `json:"total_dispatches"`
	// SuperSaved counts dispatches avoided by super-instructions (constant
	// and tuple-element fields evaluated without dispatch, §5.4).
	SuperSaved uint64 `json:"super_saved"`
	// Telemetry is the engine-wide metrics snapshot: relation/index/fixpoint
	// and parallel-worker statistics. Present only when the run carried a
	// metrics collector (Config.Metrics), as every sti.WithProfiling run does.
	Telemetry *metrics.Report `json:"telemetry,omitempty"`
}

// String renders the profile sorted by descending time; ties break on
// ascending rule ID so the output is deterministic.
func (p *Profile) String() string {
	rules := append([]RuleProfile{}, p.Rules...)
	sort.Slice(rules, func(i, j int) bool {
		if rules[i].Time != rules[j].Time {
			return rules[i].Time > rules[j].Time
		}
		return rules[i].RuleID < rules[j].RuleID
	})
	var b strings.Builder
	fmt.Fprintf(&b, "total dispatches: %d (super-instructions saved %d)\n", p.TotalDispatches, p.SuperSaved)
	for _, r := range rules {
		fmt.Fprintf(&b, "%12v %12d iter %12d disp %10d ins %10d dup  %s\n",
			r.Time.Round(time.Microsecond), r.Iterations, r.Dispatches, r.Inserts, r.Dedup, r.Label)
	}
	return b.String()
}

// profiler accumulates per-rule counters during execution.
type profiler struct {
	rules      []RuleProfile
	super      uint64
	dispatches uint64
}

func newProfiler(numRules int) *profiler {
	return &profiler{rules: make([]RuleProfile, numRules)}
}

func (p *profiler) report() *Profile {
	out := &Profile{TotalDispatches: p.dispatches, SuperSaved: p.super}
	for _, r := range p.rules {
		if r.Time > 0 || r.Dispatches > 0 || r.Iterations > 0 {
			if r.Attempts >= r.Inserts {
				r.Dedup = r.Attempts - r.Inserts
			}
			out.Rules = append(out.Rules, r)
		}
	}
	return out
}
