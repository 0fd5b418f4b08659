package ctxloop

import (
	"testing"

	"regiongrow/tools/regiongrowvet/internal/vettest"
)

func TestFixture(t *testing.T) {
	vettest.Run(t, Analyzer, "../../testdata/ctxloop", "regiongrow/internal/dpengine")
}

// internal/server implements no core.Engine; its loops are governed
// by net/http's own context plumbing.
func TestOutOfScopeSilent(t *testing.T) {
	vettest.RunEmpty(t, Analyzer, "../../testdata/ctxloop", "regiongrow/internal/server")
}
