package detlint_test

import (
	"testing"

	"safetynet/internal/analysis/analysistest"
	"safetynet/internal/analysis/detlint"
)

func TestDetlint(t *testing.T) {
	analysistest.Run(t, "testdata", detlint.Analyzer, "a", "runner")
}

func TestDetlintSuggestedFixes(t *testing.T) {
	analysistest.RunFixes(t, "testdata", detlint.Analyzer, "fix")
}
