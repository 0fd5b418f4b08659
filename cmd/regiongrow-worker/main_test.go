package main_test

import (
	"bufio"
	"bytes"
	"context"
	"net"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"regiongrow/internal/core"
	"regiongrow/internal/distengine"
	"regiongrow/internal/pixmap"
	"regiongrow/internal/rag"
)

// startWorker builds the worker binary and launches one process with the
// given extra flags, returning its address, the command (for signalling)
// and its captured stderr.
func startWorker(t *testing.T, flags ...string) (string, *exec.Cmd, *bytes.Buffer) {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "regiongrow-worker")
	build := exec.Command("go", "build", "-o", bin, "regiongrow/cmd/regiongrow-worker")
	build.Dir = filepath.Join("..", "..") // module root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building worker: %v\n%s", err, out)
	}

	cmd := exec.Command(bin, append([]string{"-listen", "127.0.0.1:0"}, flags...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting worker: %v", err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		}
	})
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		t.Fatalf("worker banner: %v", err)
	}
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "listening on ")
	if !ok {
		t.Fatalf("worker banner %q", line)
	}
	return addr, cmd, &stderr
}

// TestSIGTERMDrainsActiveJob is the regression pin for the termination
// race: SIGTERM arriving while a job is mid-merge must let that job run
// to completion (byte-identical result), release idle connections via
// the idle timeout rather than letting them hold the drain open, refuse
// new connections, and exit 0.
func TestSIGTERMDrainsActiveJob(t *testing.T) {
	if testing.Short() {
		t.Skip("process-exec test skipped in -short mode")
	}
	addr, cmd, stderr := startWorker(t, "-idletimeout", "500ms")

	// An accepted-but-jobless connection: under the old behaviour a drain
	// could block on it forever; the idle timeout must release it.
	idle, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()

	im := pixmap.Generate(pixmap.Image3Circles128, pixmap.DefaultGenOptions())
	cfg := core.Config{Threshold: 10, Tie: rag.SmallestID}
	want, err := core.Sequential{}.SegmentContext(context.Background(), im, cfg, core.Run{})
	if err != nil {
		t.Fatal(err)
	}

	// SIGTERM the worker the moment the merge phase is demonstrably in
	// flight on it.
	var once sync.Once
	run := core.Run{Observer: core.ObserverFunc(func(ev core.StageEvent) {
		if ev.Kind == core.EventMergeIteration {
			once.Do(func() {
				if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
					t.Errorf("signalling worker: %v", err)
				}
			})
		}
	})}
	got, err := distengine.New([]string{addr}).SegmentContext(context.Background(), im, cfg, run)
	if err != nil {
		t.Fatalf("job interrupted by SIGTERM instead of draining: %v", err)
	}
	if !got.EqualLabels(want) {
		t.Error("drained job produced labels differing from sequential")
	}

	// The process exits 0 once the idle connection times out — well inside
	// this bound — despite that connection still being open on our side.
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("worker exit after drain: %v\n%s", err, stderr.Bytes())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("worker did not exit after SIGTERM drain\n%s", stderr.Bytes())
	}
	if s := stderr.String(); !strings.Contains(s, "drained, exiting") {
		t.Errorf("drain not reported on stderr:\n%s", s)
	}

	// The listener is gone: new coordinators are refused.
	if c, err := net.Dial("tcp", addr); err == nil {
		c.Close()
		t.Error("dial succeeded after the worker drained and exited")
	}
}
