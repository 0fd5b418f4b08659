package distengine

import (
	"bufio"
	"bytes"
	"context"
	"net"
	"sync"
	"testing"

	"regiongrow/internal/core"
	"regiongrow/internal/pixmap"
	"regiongrow/internal/rag"
	"regiongrow/internal/transport"
)

// tapConn wraps a worker-side accepted connection and records both byte
// streams: what the coordinator sent (observed as the worker reads) and
// what the worker wrote back.
type tapConn struct {
	net.Conn
	mu  *sync.Mutex
	in  *bytes.Buffer // coordinator → worker
	out *bytes.Buffer // worker → coordinator
}

func (t *tapConn) Read(p []byte) (int, error) {
	n, err := t.Conn.Read(p)
	t.mu.Lock()
	t.in.Write(p[:n])
	t.mu.Unlock()
	return n, err
}

// Write records p before sending it: once the result frame is on the wire
// the job can complete and the test can read the tap, so recording after
// the send would race with that read.
func (t *tapConn) Write(p []byte) (int, error) {
	t.mu.Lock()
	t.out.Write(p)
	t.mu.Unlock()
	return t.Conn.Write(p)
}

// tapListener wraps a worker listener, tapping every accepted connection
// in accept order.
type tapListener struct {
	net.Listener
	mu    sync.Mutex
	conns []*tapConn
}

func (l *tapListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	tc := &tapConn{Conn: c, mu: &l.mu, in: &bytes.Buffer{}, out: &bytes.Buffer{}}
	l.mu.Lock()
	l.conns = append(l.conns, tc)
	l.mu.Unlock()
	return tc, nil
}

// frames parses a recorded byte stream back into (type, payload) frames.
func frames(t *testing.T, stream []byte) []struct {
	t frameType
	p []byte
} {
	t.Helper()
	var out []struct {
		t frameType
		p []byte
	}
	r := bufio.NewReader(bytes.NewReader(stream))
	for {
		f, err := transport.ReadFrame(r)
		if err != nil {
			return out
		}
		out = append(out, struct {
			t frameType
			p []byte
		}{frameType(f.Type), f.Payload})
	}
}

// startTappedWorkers launches n workers on loopback TCP listeners that
// tap every accepted connection. The cleanup registered on t closes the
// listeners and waits for the serve loops to drain.
func startTappedWorkers(t *testing.T, n int) ([]string, []*tapListener) {
	t.Helper()
	addrs := make([]string, n)
	taps := make([]*tapListener, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		tl := &tapListener{Listener: l}
		taps[i] = tl
		addrs[i] = l.Addr().String()
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = ServeWorker(transport.WrapListener(tl))
		}()
	}
	t.Cleanup(func() {
		for _, tl := range taps {
			tl.Listener.Close()
		}
		wg.Wait()
	})
	return addrs, taps
}

// maskWall zeroes the SplitWallNanos field of a result payload (offset 16,
// 8 bytes — the only wall-clock value on the wire) so the rest of the
// frame can be compared byte for byte.
func maskWall(p []byte) []byte {
	masked := bytes.Clone(p)
	if len(masked) >= 24 {
		for i := 16; i < 24; i++ {
			masked[i] = 0
		}
	}
	return masked
}

// TestWireByteStability: two runs of the same job must put byte-identical
// frame sequences on every connection, in both directions. This pins the
// paper's determinism guarantee at the wire: suitor routing, adjacency
// payloads, and handover frames are emitted in sorted order, never map
// order. Only the result frame's wall-clock field may differ.
func TestWireByteStability(t *testing.T) {
	const workers = 2
	addrs, taps := startTappedWorkers(t, workers)

	im := pixmap.Generate(pixmap.Image3Circles128, pixmap.DefaultGenOptions())
	cfg := core.Config{Threshold: 10, Tie: rag.Random, Seed: 7}
	eng := New(addrs)
	for run := 0; run < 2; run++ {
		if _, err := eng.SegmentContext(context.Background(), im, cfg, core.Run{}); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
	}

	for w, tl := range taps {
		tl.mu.Lock()
		conns := tl.conns
		tl.mu.Unlock()
		if len(conns) != 2 {
			t.Fatalf("worker %d: %d connections, want one per run", w, len(conns))
		}
		for dir, stream := range map[string]func(c *tapConn) []byte{
			"coordinator→worker": func(c *tapConn) []byte { tl.mu.Lock(); defer tl.mu.Unlock(); return bytes.Clone(c.in.Bytes()) },
			"worker→coordinator": func(c *tapConn) []byte { tl.mu.Lock(); defer tl.mu.Unlock(); return bytes.Clone(c.out.Bytes()) },
		} {
			a, b := frames(t, stream(conns[0])), frames(t, stream(conns[1]))
			if len(a) != len(b) {
				t.Errorf("worker %d %s: run 0 sent %d frames, run 1 sent %d", w, dir, len(a), len(b))
				continue
			}
			for i := range a {
				if a[i].t != b[i].t {
					t.Errorf("worker %d %s frame %d: type %d vs %d", w, dir, i, a[i].t, b[i].t)
					continue
				}
				pa, pb := a[i].p, b[i].p
				if a[i].t == frameResult {
					pa, pb = maskWall(pa), maskWall(pb)
				}
				if !bytes.Equal(pa, pb) {
					t.Errorf("worker %d %s frame %d (type %d): payloads differ between runs", w, dir, i, a[i].t)
				}
			}
		}
	}
}
