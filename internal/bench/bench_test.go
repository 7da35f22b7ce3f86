package bench

import (
	"io"
	"strings"
	"testing"

	"sti/internal/interp"
)

func TestSuitesGenerateAndCompile(t *testing.T) {
	suites := Suites(Small)
	if len(suites) != 16 {
		t.Fatalf("workload count = %d", len(suites))
	}
	names := map[string]bool{}
	for _, w := range suites {
		if names[w.FullName()] {
			t.Fatalf("duplicate workload %s", w.FullName())
		}
		names[w.FullName()] = true
		if _, _, err := w.Compile(); err != nil {
			t.Fatalf("%s does not compile: %v", w.FullName(), err)
		}
		if len(w.Facts) == 0 {
			t.Fatalf("%s has no facts", w.FullName())
		}
	}
	for _, want := range []string{"VPC/acct-web", "DDisasm/gcc", "DOOP/antlr"} {
		if !names[want] {
			t.Fatalf("missing workload %s", want)
		}
	}
}

func TestWorkloadsDeterministic(t *testing.T) {
	a := Suites(Small)
	b := Suites(Small)
	for i := range a {
		for rel, ts := range a[i].Facts {
			if len(b[i].Facts[rel]) != len(ts) {
				t.Fatalf("%s relation %s differs across generations", a[i].FullName(), rel)
			}
			for j := range ts {
				for k := range ts[j] {
					if ts[j][k] != b[i].Facts[rel][j][k] {
						t.Fatalf("%s relation %s tuple %d differs", a[i].FullName(), rel, j)
					}
				}
			}
		}
	}
}

func TestScalesOrdered(t *testing.T) {
	small := Suites(Small)
	medium := Suites(Medium)
	for i := range small {
		if small[i].Suite != medium[i].Suite || small[i].Name != medium[i].Name {
			t.Fatal("scale changes workload identity")
		}
	}
	// Medium VPC has strictly more routes than small.
	if len(medium[0].Facts["route"]) <= len(small[0].Facts["route"]) {
		t.Fatal("medium not larger than small")
	}
}

func TestParseScale(t *testing.T) {
	for s, want := range map[string]Scale{"small": Small, "medium": Medium, "large": Large} {
		got, err := ParseScale(s)
		if err != nil || got != want {
			t.Fatalf("ParseScale(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseScale("giant"); err == nil {
		t.Fatal("bad scale accepted")
	}
}

func TestTable1SuiteShape(t *testing.T) {
	ws := Table1Suite()
	counts := map[string]int{}
	for _, w := range ws {
		counts[w.Suite]++
		if _, _, err := w.Compile(); err != nil {
			t.Fatalf("%s: %v", w.FullName(), err)
		}
	}
	if counts["VPC"] != 5 || counts["DDisasm"] != 10 || counts["DOOP"] != 5 {
		t.Fatalf("suite counts = %v", counts)
	}
}

// TestTinyMeasurementRuns: the measurement helpers work end to end on the
// smallest workload.
func TestTinyMeasurementRuns(t *testing.T) {
	var tiny *Workload
	for _, w := range DisasmSuite(Small) {
		if w.Name == "specrand" {
			tiny = w
		}
	}
	d, prof, err := tiny.TimeInterp(interp.DefaultConfig())
	if err != nil || d <= 0 {
		t.Fatalf("TimeInterp: %v %v", d, err)
	}
	if prof != nil {
		t.Fatal("profile returned without profiling enabled")
	}
	dc, rules, err := tiny.TimeCompiled()
	if err != nil || dc <= 0 {
		t.Fatalf("TimeCompiled: %v %v", dc, err)
	}
	if len(rules) == 0 {
		t.Fatal("no rule times recorded")
	}
}

// TestFigPortfolioRecords: the portfolio figure writes one record per store,
// and both stores computed the same closure.
func TestFigPortfolioRecords(t *testing.T) {
	records, err := FigPortfolio(Small, 1, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 2 || records[0].Variant != "btree" || records[1].Variant != "brie" {
		t.Fatalf("records = %+v", records)
	}
	if records[0].Tuples == 0 || records[0].Tuples != records[1].Tuples {
		t.Fatalf("path sizes differ or are empty: %+v", records)
	}
}

func TestFig15SmallSubset(t *testing.T) {
	if testing.Short() {
		t.Skip("measurement sweep")
	}
	var sb strings.Builder
	rows, err := Fig15(Small, 1, false, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 16 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Slowdown <= 0 {
			t.Fatalf("bad slowdown for %s", r.Workload)
		}
	}
	if !strings.Contains(sb.String(), "slowdown") {
		t.Fatal("report missing summary")
	}
}
