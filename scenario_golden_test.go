package safetynet

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// exampleBudgetCycles is the horizon every example scenario is scaled to
// here: cmd/snsim's -short budget, so the test stays affordable in both
// the short and the full tier.
const exampleBudgetCycles = 1_600_000

// Regenerate with: UPDATE_GOLDEN=1 go test -run TestExampleScenarioResults .
var updateGolden = os.Getenv("UPDATE_GOLDEN") != ""

// TestExampleScenarioResults pins the Result of every checked-in example
// scenario against a golden under testdata/example-results. The results
// depend on the engine's full event order, so any change to that order —
// or to anything the runs exercise — shows up here as a diff.
func TestExampleScenarioResults(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("examples", "scenarios", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 6 {
		t.Fatalf("expected the six checked-in example scenarios, found %d: %v", len(paths), paths)
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			t.Parallel()
			sc, err := LoadScenario(path)
			if err != nil {
				t.Fatal(err)
			}
			sc.ScaleTo(exampleBudgetCycles)
			res, err := sc.Run()
			if err != nil {
				t.Fatal(err)
			}
			if err := sc.Check(res); err != nil {
				t.Errorf("expectations: %v", err)
			}
			got, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			golden := filepath.Join("testdata", "example-results",
				strings.TrimSuffix(filepath.Base(path), ".json")+".golden.json")
			if updateGolden {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden %s (set UPDATE_GOLDEN=1 to create): %v", golden, err)
			}
			if string(got) != string(want) {
				t.Errorf("result differs from %s:\n--- got ---\n%s--- want ---\n%s", golden, got, want)
			}
		})
	}
}
