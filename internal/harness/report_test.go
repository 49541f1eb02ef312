package harness

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// goldenReport is a fixed report exercising every cell kind: sampled
// values with error bars, single observations, and a crash.
func goldenReport() *Report {
	return &Report{
		Experiment: "golden",
		Title:      "Golden: encoder fixture",
		Subtitle:   "(not a real experiment)",
		LabelCols:  []string{"workload", "bar"},
		ValueCols:  []string{"normalized", "ipc"},
		ValueFmt:   []string{"%.3f", "%.2f"},
		Rows: []Row{
			{Labels: []string{"oltp", "protected"},
				Values: []Value{{Mean: 0.987, Stddev: 0.012, N: 3}, {Mean: 5.25, N: 1}}},
			{Labels: []string{"oltp", "unprotected+fault"},
				Values: []Value{CrashedValue(), CrashedValue()}},
			{Labels: []string{"jbb", "protected"},
				Values: []Value{{Mean: 1.002, Stddev: 0.03, N: 3}, {Mean: 4.5, N: 1}}},
		},
		Notes: []string{"(golden note)"},
	}
}

// Regenerate goldens with: UPDATE_GOLDEN=1 go test ./internal/harness
var updateGolden = os.Getenv("UPDATE_GOLDEN") != ""

func checkGolden(t *testing.T, name string, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s (set UPDATE_GOLDEN=1 to create): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("%s mismatch:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// checkExperimentGolden pins a report, as RunExperiment returned it,
// against testdata/experiments/<experiment>.golden.json.
func checkExperimentGolden(t *testing.T, rep *Report) {
	t.Helper()
	j, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join("experiments", rep.Experiment+".golden.json"), string(j)+"\n")
}

func TestReportGoldenJSON(t *testing.T) {
	rep := goldenReport()
	j, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "report.json", string(j)+"\n")

	// Round-trip: the JSON encoding carries every structural field.
	var back Report
	if err := json.Unmarshal(j, &back); err != nil {
		t.Fatal(err)
	}
	rep.ValueFmt = nil // not serialized by design
	if !reflect.DeepEqual(&back, rep) {
		t.Errorf("JSON round-trip mismatch:\ngot  %+v\nwant %+v", back, *rep)
	}
}

func TestReportGoldenCSV(t *testing.T) {
	c, err := goldenReport().CSV()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "report.csv", c)
	lines := strings.Split(strings.TrimSpace(c), "\n")
	if len(lines) != 1+3 {
		t.Fatalf("CSV has %d lines, want header + 3 rows", len(lines))
	}
	if !strings.HasPrefix(lines[0], "workload,bar,normalized_mean,normalized_stddev,normalized_crashed") {
		t.Errorf("CSV header = %q", lines[0])
	}
}

func TestReportRenderFormats(t *testing.T) {
	out := goldenReport().Render()
	for _, want := range []string{
		"Golden: encoder fixture",
		"0.987 ± 0.012", // sampled: error bar
		"5.25",          // single observation, %.2f verb
		"CRASH",
		"(golden note)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestReportEncodeDispatch(t *testing.T) {
	rep := goldenReport()
	for _, f := range []string{"", "text", "json", "csv"} {
		if _, err := rep.Encode(f); err != nil {
			t.Errorf("Encode(%q): %v", f, err)
		}
	}
	if _, err := rep.Encode("xml"); err == nil {
		t.Error("unknown format must error")
	}
}
