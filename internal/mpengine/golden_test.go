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
	"regiongrow/internal/prand"
	"regiongrow/internal/rag"
)

var update = flag.Bool("update", false, "rewrite testdata/simulated.golden from the current engine")

// goldenLine renders one run's simulated times and communication
// counters after its key: everything the cost model produces, at the
// precision the paper tables print and beyond.
func goldenLine(key string, seg *core.Segmentation) string {
	c := seg.Comm
	return fmt.Sprintf("%s split=%.6f merge=%.6f messages=%d words=%d barriers=%d gathers=%d reduces=%d lpsteps=%d exchanges=%d",
		key, seg.SplitSim, seg.MergeSim,
		c.Messages, c.Words, c.Barriers, c.Gathers, c.Reduces, c.LPSteps, c.Exchanges)
}

// goldenNoise is a low-amplitude 64² noise field: its range just exceeds
// the threshold of 10, so with a split cap of 4 it leaves dozens of
// regions, several of them spanning three or more tiles of a 4×4 grid.
func goldenNoise() *pixmap.Image {
	g := prand.New(1)
	im := pixmap.New(64, 64)
	for i := range im.Pix {
		im.Pix[i] = uint8(g.Intn(12))
	}
	return im
}

// goldenKey is a line's scheme and input, everything before the numbers.
func goldenKey(line string) string {
	key, _, _ := strings.Cut(line, " split=")
	return key
}

// TestSimulatedTimesGolden pins SplitSim, MergeSim and every Comm counter
// of both schemes on the six paper images at the paper's 32 nodes, and on
// paper images 1–3 and a noise field at 4, 8 and 16 nodes (2×2, 2×4 and
// 4×4 tiles), where regions span several tiles and handovers reach ranks
// that have never seen the representative. The simulated machine is
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
	check := func(key string, e *Engine, im *pixmap.Image, cfg core.Config) {
		seg, err := segment(e, im, cfg)
		if err != nil {
			t.Fatal(err)
		}
		line := goldenLine(key, seg)
		got = append(got, line)
		if *update {
			return
		}
		if w := want[key]; w != line {
			t.Errorf("simulated run differs from golden:\n got: %s\nwant: %s", line, w)
		}
	}
	cfg := core.Config{Threshold: 10, Tie: rag.Random, Seed: 1}
	mcs := []machine.ConfigID{machine.CM5_LP, machine.CM5_Async}
	for _, mc := range mcs {
		e := New(mc)
		for _, id := range pixmap.AllPaperImages() {
			if testing.Short() && id.Size() == 256 && !*update {
				continue
			}
			check(fmt.Sprintf("%s %v", e.Scheme(), id), e, pixmap.Generate(id, pixmap.DefaultGenOptions()), cfg)
		}
	}
	for _, mc := range mcs {
		scheme := New(mc).Scheme()
		for _, nodes := range []int{4, 8, 16} {
			e := NewCustom(nodes, scheme, machine.Get(mc))
			for _, id := range []pixmap.PaperImageID{pixmap.Image1NestedRects128, pixmap.Image2Rects128, pixmap.Image3Circles128} {
				check(fmt.Sprintf("%s nodes=%d %v", e.Scheme(), nodes, id), e, pixmap.Generate(id, pixmap.DefaultGenOptions()), cfg)
			}
			noiseCfg := cfg
			noiseCfg.MaxSquare = 4
			check(fmt.Sprintf("%s nodes=%d noise 64x64 cap=4", e.Scheme(), nodes), e, goldenNoise(), noiseCfg)
		}
	}
	if *update {
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
