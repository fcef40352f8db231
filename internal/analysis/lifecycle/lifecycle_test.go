package lifecycle_test

import (
	"testing"

	"pdq/internal/analysis/analysistest"
	"pdq/internal/analysis/lifecycle"
)

func TestLifecycle(t *testing.T) {
	analysistest.Run(t, ".", lifecycle.Analyzer, "leaked")
}

func TestUseAfterResolve(t *testing.T) {
	analysistest.Run(t, ".", lifecycle.Analyzer, "resolved")
}
