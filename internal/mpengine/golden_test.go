package mpengine

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"regiongrow/internal/core"
	"regiongrow/internal/machine"
	"regiongrow/internal/pixmap"
	"regiongrow/internal/rag"
)

var update = flag.Bool("update", false, "rewrite testdata/simulated.golden from the current engine")

// goldenLine renders one run's simulated times and communication
// counters: everything the cost model produces, at the precision the
// paper tables print and beyond.
func goldenLine(scheme string, id pixmap.PaperImageID, seg *core.Segmentation) string {
	c := seg.Comm
	return fmt.Sprintf("%s %v split=%.6f merge=%.6f messages=%d words=%d barriers=%d gathers=%d reduces=%d lpsteps=%d exchanges=%d",
		scheme, id, seg.SplitSim, seg.MergeSim,
		c.Messages, c.Words, c.Barriers, c.Gathers, c.Reduces, c.LPSteps, c.Exchanges)
}

// goldenKey is a line's scheme and image, everything before the numbers.
func goldenKey(line string) string {
	key, _, _ := strings.Cut(line, " split=")
	return key
}

// TestSimulatedTimesGolden pins SplitSim, MergeSim and every Comm counter
// of both schemes on the six paper images. The simulated machine is
// deterministic: goroutine scheduling and map iteration order must never
// reach a simulated clock. Regenerate with `go test -run Golden -update`
// after a deliberate cost-model change.
func TestSimulatedTimesGolden(t *testing.T) {
	path := filepath.Join("testdata", "simulated.golden")
	want := map[string]string{}
	if !*update {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			want[goldenKey(line)] = line
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}

	var got []string
	for _, mc := range []machine.ConfigID{machine.CM5_LP, machine.CM5_Async} {
		e := newEngine(t, mc)
		for _, id := range pixmap.AllPaperImages() {
			if testing.Short() && id.Size() == 256 && !*update {
				continue
			}
			im := pixmap.Generate(id, pixmap.DefaultGenOptions())
			seg, err := segment(e, im, core.Config{Threshold: 10, Tie: rag.Random, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			line := goldenLine(e.Scheme().String(), id, seg)
			got = append(got, line)
			if *update {
				continue
			}
			if w := want[goldenKey(line)]; w != line {
				t.Errorf("simulated run differs from golden:\n got: %s\nwant: %s", line, w)
			}
		}
	}
	if *update {
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
