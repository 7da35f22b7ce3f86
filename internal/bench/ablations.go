package bench

import (
	"fmt"
	"io"
	"sort"
	"time"

	"sti/internal/interp"
)

// --- Fig 16: per-rule slowdown case study ---

// Fig16Row is one rule's interpreter-vs-compiled comparison.
type Fig16Row struct {
	RuleID   int
	Label    string
	Interp   time.Duration
	Compiled time.Duration
	Slowdown float64
	// GapShare is this rule's share of the total absolute gap
	// (interp − compiled summed over rules).
	GapShare float64
}

// Fig16 profiles one DDisasm-style workload per rule under both engines and
// reports the slowdown distribution (the paper's §5.2 case study on
// gamess). Rules cheaper than minTime under the compiled engine are
// dropped, like the paper's 0.01 s cutoff. The study's interpreter is the
// paper's STI, i.e. the explicit FusedFilters=false ablation; the remedy it
// then measures is the production configuration.
func Fig16(scale Scale, w io.Writer) ([]Fig16Row, error) {
	var wl *Workload
	for _, cand := range DisasmSuite(scale) {
		if cand.Name == "gamess" {
			wl = cand
		}
	}
	cfg := interp.DefaultConfig()
	cfg.FusedFilters = false
	cfg.Profile = true
	_, prof, err := wl.TimeInterp(cfg)
	if err != nil {
		return nil, err
	}
	_, ruleTimes, err := wl.TimeCompiled()
	if err != nil {
		return nil, err
	}
	compiled := map[int]time.Duration{}
	for _, rt := range ruleTimes {
		compiled[rt.RuleID] = rt.Time
	}

	minTime := 50 * time.Microsecond
	var rows []Fig16Row
	var totalGap time.Duration
	for _, r := range prof.Rules {
		tc := compiled[r.RuleID]
		if tc < minTime || r.Time <= tc {
			if r.Time > tc {
				totalGap += r.Time - tc
			}
			continue
		}
		rows = append(rows, Fig16Row{
			RuleID:   r.RuleID,
			Label:    r.Label,
			Interp:   r.Time,
			Compiled: tc,
			Slowdown: float64(r.Time) / float64(tc),
		})
		totalGap += r.Time - tc
	}
	for i := range rows {
		rows[i].GapShare = float64(rows[i].Interp-rows[i].Compiled) / float64(totalGap)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Slowdown > rows[j].Slowdown })

	fmt.Fprintf(w, "Fig 16 — per-rule slowdown on DDisasm/gamess (scale=%s)\n", scale)
	fmt.Fprintf(w, "%9s %12s %12s %9s  rule\n", "slowdown", "STI", "compiled", "gap share")
	for _, r := range rows {
		fmt.Fprintf(w, "%8.2fx %12v %12v %8.1f%%  %s\n",
			r.Slowdown, round(r.Interp), round(r.Compiled), 100*r.GapShare, clip(r.Label, 60))
	}
	if len(rows) > 0 {
		top := rows[0]
		for _, r := range rows {
			if r.GapShare > top.GapShare {
				top = r
			}
		}
		fmt.Fprintf(w, "dominant rule contributes %.1f%% of the gap at %.1fx (paper: 4 outlier rules ~73%% of gap)\n",
			100*top.GapShare, top.Slowdown)
	}

	// The paper's §5.2 remedy: a super-instruction for the dominant filter
	// condition, executed with a single dispatch — generalized here into
	// condition fusion, which DefaultConfig has on.
	cfgFused := interp.DefaultConfig()
	cfgFused.Profile = true
	_, profFused, err := wl.TimeInterp(cfgFused)
	if err != nil {
		return nil, err
	}
	var before, after time.Duration
	fusedTimes := map[int]time.Duration{}
	for _, r := range profFused.Rules {
		fusedTimes[r.RuleID] = r.Time
	}
	for _, r := range prof.Rules {
		before += r.Time
		after += fusedTimes[r.RuleID]
	}
	fmt.Fprintf(w, "condition fusion (FusedFilters=false -> default): total rule time %v -> %v (%.2fx faster; paper: 44s -> 4s on moved_label)\n",
		round(before), round(after), float64(before)/float64(after))
	if after >= before {
		return rows, fmt.Errorf("fig16: fused rule time %v is not below the unfused ablation's %v", after, before)
	}

	// Per-iteration dispatch reduction on the dominant rule (the paper's
	// "14 dispatches -> 1").
	var dominant *interp.RuleProfile
	for i := range prof.Rules {
		r := &prof.Rules[i]
		if dominant == nil || r.Time > dominant.Time {
			dominant = r
		}
	}
	if dominant != nil && dominant.Iterations > 0 {
		var fusedRule *interp.RuleProfile
		for i := range profFused.Rules {
			if profFused.Rules[i].RuleID == dominant.RuleID {
				fusedRule = &profFused.Rules[i]
			}
		}
		if fusedRule != nil && fusedRule.Iterations > 0 {
			fmt.Fprintf(w, "dominant rule dispatches/iteration: %.1f -> %.2f (paper: 14 -> 1 for the filter; here the scan evaluates the fused filter itself)\n",
				float64(dominant.Dispatches)/float64(dominant.Iterations),
				float64(fusedRule.Dispatches)/float64(fusedRule.Iterations))
		}
	}
	return rows, nil
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-3] + "..."
}

// --- generic A/B ablation driver ---

// AblationRow is one workload's A/B runtime comparison.
type AblationRow struct {
	Workload string
	Base     time.Duration // optimization ON (the full STI)
	Variant  time.Duration // optimization OFF
	Relative float64       // Base / Variant (lower = optimization helps)
}

func runAblation(scale Scale, repeats int, title string, w io.Writer, variant func(interp.Config) interp.Config) ([]AblationRow, error) {
	fmt.Fprintf(w, "%s (scale=%s; relative runtime, optimized/baseline — lower is better)\n", title, scale)
	fmt.Fprintf(w, "%-22s %12s %12s %9s\n", "benchmark", "optimized", "baseline", "relative")
	var rows []AblationRow
	for _, wl := range Suites(scale) {
		on, err := repeat(repeats, func() (time.Duration, error) {
			d, _, err := wl.TimeInterp(interp.DefaultConfig())
			return d, err
		})
		if err != nil {
			return nil, err
		}
		off, err := repeat(repeats, func() (time.Duration, error) {
			d, _, err := wl.TimeInterp(variant(interp.DefaultConfig()))
			return d, err
		})
		if err != nil {
			return nil, err
		}
		row := AblationRow{
			Workload: wl.FullName(),
			Base:     on,
			Variant:  off,
			Relative: float64(on) / float64(off),
		}
		fmt.Fprintf(w, "%-22s %12v %12v %9.3f\n", row.Workload, round(on), round(off), row.Relative)
		rows = append(rows, row)
	}
	var rels []float64
	for _, r := range rows {
		rels = append(rels, r.Relative)
	}
	fmt.Fprintf(w, "average relative runtime: %.3f (%.1f%% faster with the optimization)\n",
		mean(rels), 100*(1-mean(rels)))
	return rows, nil
}

// Fig18 ablates static instruction generation: the baseline runs every
// relational operation through the dynamic adapter with buffered iterators.
func Fig18(scale Scale, repeats int, w io.Writer) ([]AblationRow, error) {
	return runAblation(scale, repeats,
		"Fig 18 — static instruction generation vs dynamic adapter", w,
		func(c interp.Config) interp.Config {
			c.StaticDispatch = false
			return c
		})
}

// Fig19 ablates super-instructions and additionally reports the fraction of
// dispatches they eliminate (§5.4's 22.01%).
func Fig19(scale Scale, repeats int, w io.Writer) ([]AblationRow, error) {
	rows, err := runAblation(scale, repeats,
		"Fig 19 — super-instructions vs plain dispatch", w,
		func(c interp.Config) interp.Config {
			c.SuperInstructions = false
			return c
		})
	if err != nil {
		return nil, err
	}
	// Dispatch elimination, measured in profile mode on the paper's STI:
	// fused conditions would hide the leaf dispatches §4.4 removes.
	var withSI, withoutSI float64
	for _, wl := range Suites(scale) {
		cfg := interp.DefaultConfig()
		cfg.FusedFilters = false
		cfg.Profile = true
		_, p1, err := wl.TimeInterp(cfg)
		if err != nil {
			return nil, err
		}
		cfg.SuperInstructions = false
		_, p0, err := wl.TimeInterp(cfg)
		if err != nil {
			return nil, err
		}
		withSI += float64(p1.TotalDispatches)
		withoutSI += float64(p0.TotalDispatches)
	}
	fmt.Fprintf(w, "dispatches eliminated by super-instructions: %.1f%% (paper: 22.01%%)\n",
		100*(1-withSI/withoutSI))
	return rows, nil
}

// FigReorder ablates static tuple reordering (§5.5): the baseline re-orders
// tuples at runtime through decoding iterators.
func FigReorder(scale Scale, repeats int, w io.Writer) ([]AblationRow, error) {
	return runAblation(scale, repeats,
		"§5.5 — static tuple reordering vs runtime reordering", w,
		func(c interp.Config) interp.Config {
			c.StaticReordering = false
			return c
		})
}

// FigDispatch ablates the lean dispatch path (the §4.3 register-pressure
// analog): the baseline pays a fixed extra cost on every dispatch.
func FigDispatch(scale Scale, repeats int, w io.Writer) ([]AblationRow, error) {
	return runAblation(scale, repeats,
		"§5.5 — lean dispatch vs heavyweight dispatch", w,
		func(c interp.Config) interp.Config {
			c.LeanDispatch = false
			return c
		})
}

// --- data-structure portfolio ---

// FigPortfolio compares the portfolio entries (§2): the same dense
// reachability workload with relations stored in B-trees vs bries. Dense
// identifier spaces favor the brie's bitmap leaves; the portfolio exists
// because neither structure wins everywhere.
func FigPortfolio(scale Scale, repeats int, w io.Writer) error {
	const tmpl = `
.decl edge(x:number, y:number) %[1]s
.decl path(x:number, y:number) %[1]s
.input edge
.printsize path
path(x, y) :- edge(x, y).
path(x, z) :- path(x, y), edge(y, z).
`
	sizes := map[Scale]int{Small: 20, Medium: 30, Large: 42}
	n := sizes[scale]
	facts := denseGridFacts(n)
	fmt.Fprintf(w, "Data-structure portfolio — dense reachability, %dx%d grid (scale=%s)\n", n, n, scale)
	fmt.Fprintf(w, "%-8s %12s\n", "store", "STI time")
	var times []time.Duration
	for _, rep := range []string{"btree", "brie"} {
		wl := &Workload{
			Suite: "Portfolio",
			Name:  rep,
			Src:   fmt.Sprintf(tmpl, rep),
			Facts: facts,
		}
		d, err := repeat(repeats, func() (time.Duration, error) {
			t, _, err := wl.TimeInterp(interp.DefaultConfig())
			return t, err
		})
		if err != nil {
			return err
		}
		times = append(times, d)
		fmt.Fprintf(w, "%-8s %12v\n", rep, round(d))
	}
	fmt.Fprintf(w, "brie/btree runtime ratio: %.2f\n", float64(times[1])/float64(times[0]))
	return nil
}

// denseGridFacts lays a 2-D grid over a dense id space: node (r,c) = r*side+c
// with right/down edges — dense, clustered identifiers.
func denseGridFacts(side int) map[string][]tupleT {
	var edges []tupleT
	id := func(r, c int) uint32 { return uint32(r*side + c) }
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			if c+1 < side {
				edges = append(edges, tupleT{id(r, c), id(r, c+1)})
			}
			if r+1 < side {
				edges = append(edges, tupleT{id(r, c), id(r+1, c)})
			}
		}
	}
	return map[string][]tupleT{"edge": edges}
}
