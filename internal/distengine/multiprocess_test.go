package distengine_test

import (
	"bufio"
	"context"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"regiongrow/internal/core"
	"regiongrow/internal/distengine"
	"regiongrow/internal/pixmap"
	"regiongrow/internal/rag"
)

// startProcessCluster builds cmd/regiongrow-worker once and launches n
// real worker processes, returning their addresses and the commands (for
// signalling). Processes are SIGTERMed and reaped in cleanup.
func startProcessCluster(t *testing.T, n int) ([]string, []*exec.Cmd) {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "regiongrow-worker")
	build := exec.Command("go", "build", "-o", bin, "regiongrow/cmd/regiongrow-worker")
	build.Dir = filepath.Join("..", "..") // module root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building worker: %v\n%s", err, out)
	}

	addrs := make([]string, n)
	cmds := make([]*exec.Cmd, n)
	for i := 0; i < n; i++ {
		cmd := exec.Command(bin, "-listen", "127.0.0.1:0")
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting worker %d: %v", i, err)
		}
		cmds[i] = cmd
		line, err := bufio.NewReader(stdout).ReadString('\n')
		if err != nil {
			t.Fatalf("worker %d banner: %v", i, err)
		}
		addr, ok := strings.CutPrefix(strings.TrimSpace(line), "listening on ")
		if !ok {
			t.Fatalf("worker %d banner %q", i, line)
		}
		addrs[i] = addr
	}
	t.Cleanup(func() {
		for _, cmd := range cmds {
			if cmd.ProcessState == nil {
				_ = cmd.Process.Kill()
				_ = cmd.Wait()
			}
		}
	})
	return addrs, cmds
}

// TestDistMultiProcess: a cluster of four real worker processes produces
// labels byte-identical to the sequential engine, survives a mid-merge
// cancellation with no process exiting, and every process shuts down
// cleanly (exit 0) on SIGTERM.
func TestDistMultiProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process cluster test skipped in -short mode")
	}
	addrs, cmds := startProcessCluster(t, 4)
	eng := distengine.New(addrs)
	im := pixmap.Generate(pixmap.Image3Circles128, pixmap.DefaultGenOptions())

	for _, tie := range []rag.TiePolicy{rag.SmallestID, rag.Random} {
		cfg := core.Config{Threshold: 10, Tie: tie, Seed: 1}
		want, err := segment(core.Sequential{}, im, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := segment(eng, im, cfg)
		if err != nil {
			t.Fatalf("tie %v: %v", tie, err)
		}
		if !got.EqualLabels(want) {
			t.Errorf("tie %v: labels differ from sequential", tie)
		}
	}

	// Mid-merge cancel: the run aborts, the processes stay up, and the
	// cluster serves the next job.
	cfg := core.Config{Threshold: 10, Tie: rag.Random, Seed: 1}
	ctx, cancel := context.WithCancel(context.Background())
	run := core.Run{Observer: core.ObserverFunc(func(ev core.StageEvent) {
		if ev.Kind == core.EventMergeIteration {
			cancel()
		}
	})}
	if _, err := eng.SegmentContext(ctx, im, cfg, run); err != context.Canceled {
		t.Fatalf("cancelled run: %v, want context.Canceled", err)
	}
	for i, cmd := range cmds {
		if cmd.ProcessState != nil {
			t.Fatalf("worker %d exited after job cancellation", i)
		}
	}
	if _, err := segment(eng, im, cfg); err != nil {
		t.Fatalf("post-cancel segment: %v", err)
	}

	// Clean shutdown: SIGTERM drains and exits 0.
	for _, cmd := range cmds {
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
	}
	for i, cmd := range cmds {
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("worker %d exit: %v", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("worker %d did not exit on SIGTERM", i)
		}
	}
}
