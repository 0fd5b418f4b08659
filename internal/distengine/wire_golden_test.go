package distengine

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"regiongrow/internal/core"
	"regiongrow/internal/pixmap"
	"regiongrow/internal/quadsplit"
	"regiongrow/internal/rag"
)

var update = flag.Bool("update", false, "rewrite testdata/wire.golden from the current engine")

// wireGoldenImages are the paper images TestWireGolden and
// TestFrameBudget run at 1–3 workers under every tie policy.
var wireGoldenImages = []pixmap.PaperImageID{pixmap.Image1NestedRects128, pixmap.Image3Circles128, pixmap.Image6Tool256}

// wireDigest summarises one recorded byte stream: the number of protocol
// frames and a SHA-256 over every frame's type, payload length and
// payload. Ping and pong frames are timer-driven, so they are skipped;
// the result frame's wall-clock field is masked.
func wireDigest(t *testing.T, stream []byte) (int, string) {
	h := sha256.New()
	n := 0
	for _, f := range frames(t, stream) {
		if f.t == framePing || f.t == framePong {
			continue
		}
		p := f.p
		if f.t == frameResult {
			p = maskWall(p)
		}
		h.Write([]byte{byte(f.t)})
		h.Write(binary.BigEndian.AppendUint32(nil, uint32(len(p))))
		h.Write(p)
		n++
	}
	return n, fmt.Sprintf("%x", h.Sum(nil))
}

// TestWireGolden pins every frame the cluster puts on the wire, across
// commits: for 1, 2 and 3 workers over TCP, paper images 1, 3 and 6 and
// every tie policy, each connection's stream in each direction must hash
// to its line in testdata/wire.golden. TestWireByteStability compares two
// runs of one build; this test compares against a recorded one, so a
// change to any payload's bytes or order shows up. The 256² image is
// skipped under -short. Regenerate with `go test -run WireGolden -update`
// after a deliberate protocol change.
func TestWireGolden(t *testing.T) {
	path := filepath.Join("testdata", "wire.golden")
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
			key, _, _ := strings.Cut(line, " frames=")
			want[key] = line
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}

	var got []string
	for workers := 1; workers <= 3; workers++ {
		addrs, taps := startTappedWorkers(t, workers)
		eng := New(addrs)
		job := 0
		for _, id := range wireGoldenImages {
			if testing.Short() && id.Size() == 256 && !*update {
				continue
			}
			im := pixmap.Generate(id, pixmap.DefaultGenOptions())
			for _, tie := range rag.AllTiePolicies() {
				cfg := core.Config{Threshold: 10, Tie: tie, Seed: 1}
				if _, err := eng.SegmentContext(context.Background(), im, cfg, core.Run{}); err != nil {
					t.Fatalf("%d workers, %s, %v: %v", workers, id.ShortName(), tie, err)
				}
				for rank, tl := range taps {
					tl.mu.Lock()
					if len(tl.conns) != job+1 {
						tl.mu.Unlock()
						t.Fatalf("worker %d: %d connections after %d jobs", rank, len(tl.conns), job+1)
					}
					c := tl.conns[job]
					down, up := bytes.Clone(c.in.Bytes()), bytes.Clone(c.out.Bytes())
					tl.mu.Unlock()
					for _, s := range []struct {
						dir    string
						stream []byte
					}{{"down", down}, {"up", up}} {
						n, sum := wireDigest(t, s.stream)
						key := fmt.Sprintf("workers=%d %s tie=%v rank=%d %s", workers, id.ShortName(), tie, rank, s.dir)
						line := fmt.Sprintf("%s frames=%d sha256=%s", key, n, sum)
						got = append(got, line)
						if *update {
							continue
						}
						if w := want[key]; w != line {
							t.Errorf("wire stream differs from golden:\n got: %s\nwant: %s", line, w)
						}
					}
				}
				job++
			}
		}
	}
	if *update {
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFrameBudget pins what a job costs on the wire-golden set. With W
// bands and R merge rounds, each worker sends its two split reduces, the
// boundary exchange, three frames a round (exchange-max, gather and the
// handover exchange), the closing exchange-max, whose maximum is 0, and
// its result; rank 0 adds 2+R events. So a job sends W·(5+3R)+2+R
// frames, W·(R+3) reduces and W·(1+2R) exchanges, and a hub round trip
// added to a round fails here by name.
func TestFrameBudget(t *testing.T) {
	for workers := 1; workers <= 3; workers++ {
		addrs, _ := startTappedWorkers(t, workers)
		eng := New(addrs)
		for _, id := range wireGoldenImages {
			im := pixmap.Generate(id, pixmap.DefaultGenOptions())
			cap := quadsplit.EffectiveCap(quadsplit.Options{}, im.W, im.H)
			w := int64(min(workers, (im.H+cap-1)/cap))
			for _, tie := range rag.AllTiePolicies() {
				seg, err := eng.SegmentContext(context.Background(), im, core.Config{Threshold: 10, Tie: tie, Seed: 1}, core.Run{})
				if err != nil {
					t.Fatalf("%d workers, %s, %v: %v", workers, id.ShortName(), tie, err)
				}
				r := int64(seg.MergeIterations)
				got := [...]int64{seg.Comm.Messages, seg.Comm.Reduces, seg.Comm.Exchanges, seg.Comm.Gathers}
				want := [...]int64{w*(5+3*r) + 2 + r, w * (r + 3), w * (1 + 2*r), w * r}
				if got != want {
					t.Errorf("%d workers (%d bands), %s, %v, %d rounds: frames, reduces, exchanges, gathers %v, want %v",
						workers, w, id.ShortName(), tie, r, got, want)
				}
			}
		}
	}
}
