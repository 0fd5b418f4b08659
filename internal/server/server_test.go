package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"regiongrow"
)

// segmentLocal runs the sequential reference engine in-process.
func segmentLocal(im *regiongrow.Image, cfg regiongrow.Config) (*regiongrow.Segmentation, error) {
	s, err := regiongrow.New(regiongrow.SequentialEngine)
	if err != nil {
		return nil, err
	}
	return s.Segment(context.Background(), im, cfg)
}

func paperPGM(t *testing.T, id regiongrow.PaperImageID) (*regiongrow.Image, []byte) {
	t.Helper()
	im := regiongrow.GeneratePaperImage(id)
	var buf bytes.Buffer
	if err := regiongrow.WritePGM(&buf, im); err != nil {
		t.Fatal(err)
	}
	return im, buf.Bytes()
}

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	svc := New(opts)
	ts := httptest.NewServer(svc)
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return svc, ts
}

func postSegment(t *testing.T, ts *httptest.Server, query string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/segment"+query, "image/x-portable-graymap", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestSegmentPGMRoundTrip uploads a paper image and checks the PGM the
// server returns is byte-identical to what the library produces directly.
func TestSegmentPGMRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	im, pgm := paperPGM(t, regiongrow.Image3Circles128)

	resp := postSegment(t, ts, "?format=pgm", pgm)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	seg, err := segmentLocal(im, regiongrow.Config{Threshold: 10, Tie: regiongrow.RandomTie, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := regiongrow.WritePGM(&want, regiongrow.Recolour(seg, im)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("served PGM differs from library output (%d vs %d bytes)", len(got), want.Len())
	}
	if h := resp.Header.Get("X-Cache"); h != "miss" {
		t.Fatalf("X-Cache = %q, want miss", h)
	}
}

type segmentJSON struct {
	Engine string `json:"engine"`
	Cache  string `json:"cache"`
	Image  struct {
		Width  int    `json:"width"`
		Height int    `json:"height"`
		SHA256 string `json:"sha256"`
	} `json:"image"`
	Result struct {
		FinalRegions int     `json:"final_regions"`
		Labels       []int32 `json:"labels"`
		Regions      []struct {
			ID   int32 `json:"id"`
			Area int   `json:"area"`
		} `json:"regions"`
	} `json:"result"`
}

func decodeSegment(t *testing.T, resp *http.Response) segmentJSON {
	t.Helper()
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out segmentJSON
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decoding %q: %v", body, err)
	}
	return out
}

// TestSegmentJSONMatchesLibrary checks the JSON labels equal the library's
// Segment output, for both an upload and a by-name paper image on the
// native engine.
func TestSegmentJSONMatchesLibrary(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	im, pgm := paperPGM(t, regiongrow.Image1NestedRects128)
	seg, err := segmentLocal(im, regiongrow.Config{Threshold: 10, Tie: regiongrow.RandomTie, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	upload := decodeSegment(t, postSegment(t, ts, "?labels=1", pgm))
	byName := decodeSegment(t, postSegment(t, ts, "?labels=1&image=image1&engine=native", nil))

	for name, got := range map[string]segmentJSON{"upload": upload, "byname": byName} {
		if got.Result.FinalRegions != seg.FinalRegions {
			t.Errorf("%s: final_regions = %d, want %d", name, got.Result.FinalRegions, seg.FinalRegions)
		}
		if len(got.Result.Labels) != len(seg.Labels) {
			t.Fatalf("%s: %d labels, want %d", name, len(got.Result.Labels), len(seg.Labels))
		}
		for i := range seg.Labels {
			if got.Result.Labels[i] != seg.Labels[i] {
				t.Fatalf("%s: label[%d] = %d, want %d", name, i, got.Result.Labels[i], seg.Labels[i])
			}
		}
		if len(got.Result.Regions) != seg.FinalRegions {
			t.Errorf("%s: %d region stats, want %d", name, len(got.Result.Regions), seg.FinalRegions)
		}
		if got.Image.SHA256 != regiongrow.HashImage(im) {
			t.Errorf("%s: image hash mismatch", name)
		}
	}
}

// TestCacheHitMiss checks repeat requests hit the cache, distinct configs
// miss, and seed differences under deterministic tie policies are
// canonicalized away.
func TestCacheHitMiss(t *testing.T) {
	svc, ts := newTestServer(t, Options{})
	_, pgm := paperPGM(t, regiongrow.Image2Rects128)

	if got := decodeSegment(t, postSegment(t, ts, "", pgm)); got.Cache != "miss" {
		t.Fatalf("first request cache = %q, want miss", got.Cache)
	}
	if got := decodeSegment(t, postSegment(t, ts, "", pgm)); got.Cache != "hit" {
		t.Fatalf("repeat request cache = %q, want hit", got.Cache)
	}
	// A different random seed is a different result — must miss.
	if got := decodeSegment(t, postSegment(t, ts, "?seed=2", pgm)); got.Cache != "miss" {
		t.Fatalf("changed random seed cache = %q, want miss", got.Cache)
	}
	// Under smallest-id the seed is inert, so different seeds share a key.
	if got := decodeSegment(t, postSegment(t, ts, "?tie=smallest-id&seed=3", pgm)); got.Cache != "miss" {
		t.Fatalf("first smallest-id cache = %q, want miss", got.Cache)
	}
	if got := decodeSegment(t, postSegment(t, ts, "?tie=smallest-id&seed=4", pgm)); got.Cache != "hit" {
		t.Fatalf("seed-only change under smallest-id cache = %q, want hit (canonicalization)", got.Cache)
	}

	st := svc.Stats()
	if st.Cache.Hits < 2 || st.Cache.Misses < 3 {
		t.Fatalf("cache counters hits=%d misses=%d, want >=2 and >=3", st.Cache.Hits, st.Cache.Misses)
	}
	if st.Cache.Entries == 0 {
		t.Fatal("cache reports zero entries after misses")
	}
}

// blockingSegment returns a SegmentFunc that signals each start on started
// and blocks until release is closed, then produces a minimal valid
// segmentation. It ignores ctx: jobs run to completion once started, which
// keeps the shutdown and queueing tests deterministic.
func blockingSegment(started chan<- struct{}, release <-chan struct{}) SegmentFunc {
	return func(ctx context.Context, im *regiongrow.Image, cfg regiongrow.Config, kind regiongrow.EngineKind, obs regiongrow.Observer) (*regiongrow.Segmentation, error) {
		started <- struct{}{}
		<-release
		return &regiongrow.Segmentation{
			W: im.W, H: im.H,
			Labels: make([]int32, im.W*im.H),
		}, nil
	}
}

// TestQueueFull429 saturates a 1-worker/1-slot server and checks the next
// request is rejected with 429 while the accepted ones complete.
func TestQueueFull429(t *testing.T) {
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	svc, ts := newTestServer(t, Options{
		Workers:      1,
		QueueDepth:   1,
		CacheEntries: -1,
		Segment:      blockingSegment(started, release),
	})
	_, pgm := paperPGM(t, regiongrow.Image1NestedRects128)

	results := make(chan int, 2)
	post := func() {
		resp, err := http.Post(ts.URL+"/v1/segment", "image/x-portable-graymap", bytes.NewReader(pgm))
		if err != nil {
			results <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		results <- resp.StatusCode
	}
	go post() // occupies the worker
	<-started
	go post() // occupies the queue slot
	waitFor(t, func() bool { return svc.Stats().Queue.Depth == 1 })

	resp := postSegment(t, ts, "", pgm) // nowhere to go: 429
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}

	close(release)
	for i := 0; i < 2; i++ {
		if code := <-results; code != http.StatusOK {
			t.Fatalf("accepted request %d finished with %d, want 200", i, code)
		}
	}
	st := svc.Stats()
	if st.Requests.Rejected != 1 || st.Requests.Served != 2 {
		t.Fatalf("rejected=%d served=%d, want 1 and 2", st.Requests.Rejected, st.Requests.Served)
	}
}

// TestGracefulShutdownDrains starts a real http.Server, blocks a request
// mid-job, initiates Shutdown, and checks the in-flight request still
// completes with 200.
func TestGracefulShutdownDrains(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	svc := New(Options{Workers: 1, QueueDepth: 4, Segment: blockingSegment(started, release)})
	defer svc.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := &http.Server{Handler: svc}
	go httpSrv.Serve(ln)

	_, pgm := paperPGM(t, regiongrow.Image1NestedRects128)
	url := fmt.Sprintf("http://%s/v1/segment", ln.Addr())
	results := make(chan int, 1)
	go func() {
		resp, err := http.Post(url, "image/x-portable-graymap", bytes.NewReader(pgm))
		if err != nil {
			results <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		results <- resp.StatusCode
	}()
	<-started

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- httpSrv.Shutdown(ctx)
	}()

	// Shutdown must wait for the in-flight request, not kill it.
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned (%v) while a request was in flight", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if code := <-results; code != http.StatusOK {
		t.Fatalf("in-flight request finished with %d, want 200", code)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	svc.Close()
	if err := svc.pool.Enqueue(func() {}); err != ErrClosed {
		t.Fatalf("Enqueue after Close = %v, want ErrClosed", err)
	}
}

// TestBadRequests checks malformed parameters and bodies produce 400s
// whose text names the valid choices.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	_, pgm := paperPGM(t, regiongrow.Image1NestedRects128)

	cases := []struct {
		name, query string
		body        []byte
		wantSubstr  string
	}{
		{"engine", "?engine=warp", pgm, "sequential"},
		{"tie", "?tie=coin-flip", pgm, "smallest-id"},
		{"threshold", "?threshold=x", pgm, "threshold"},
		{"seed", "?seed=-1", pgm, "seed"},
		{"maxsquare", "?maxsquare=-2", pgm, "maxsquare"},
		{"format", "?format=bmp", pgm, "json or pgm"},
		{"image", "?image=image9", nil, "image1"},
		{"body", "", []byte("not a pgm"), "PGM"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postSegment(t, ts, tc.query, tc.body)
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (%s)", resp.StatusCode, body)
			}
			if !strings.Contains(string(body), tc.wantSubstr) {
				t.Fatalf("error %q does not name valid choices (%q)", body, tc.wantSubstr)
			}
		})
	}
}

// TestOversizedUpload413 checks a body above MaxBodyBytes is answered
// 413, not 400.
func TestOversizedUpload413(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxBodyBytes: 64})
	_, pgm := paperPGM(t, regiongrow.Image1NestedRects128)
	resp := postSegment(t, ts, "", pgm)
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413 (%s)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "upload limit") {
		t.Fatalf("413 body %q does not mention the upload limit", body)
	}
}

// TestAbandonedRequestWarmsCache checks that under the explicit
// WarmAbandoned policy a job whose client disconnects mid-run still
// completes and populates the cache, and is counted as a disconnect
// cancellation rather than a failure.
func TestAbandonedRequestWarmsCache(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	svc := New(Options{Workers: 1, QueueDepth: 4, WarmAbandoned: true, Segment: blockingSegment(started, release)})
	defer svc.Close()
	_, pgm := paperPGM(t, regiongrow.Image1NestedRects128)

	ctx, cancel := context.WithCancel(context.Background())
	r := httptest.NewRequestWithContext(ctx, http.MethodPost, "/v1/segment", bytes.NewReader(pgm))
	handlerDone := make(chan struct{})
	go func() {
		svc.ServeHTTP(httptest.NewRecorder(), r)
		close(handlerDone)
	}()
	<-started
	cancel() // the client goes away while the worker is mid-job
	<-handlerDone
	close(release)

	waitFor(t, func() bool { return svc.cache.Len() == 1 })
	st := svc.Stats()
	if st.Requests.Canceled != 1 || st.Requests.CanceledDisconnect != 1 || st.Requests.Failed != 0 {
		t.Fatalf("canceled=%d disconnect=%d failed=%d, want 1, 1, 0",
			st.Requests.Canceled, st.Requests.CanceledDisconnect, st.Requests.Failed)
	}

	// The warmed entry must now serve a hit without touching the pool.
	w := httptest.NewRecorder()
	svc.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/segment", bytes.NewReader(pgm)))
	if w.Code != http.StatusOK {
		t.Fatalf("follow-up status %d: %s", w.Code, w.Body.String())
	}
	var out segmentJSON
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Cache != "hit" {
		t.Fatalf("follow-up cache = %q, want hit (abandoned job should have warmed it)", out.Cache)
	}
}

// ctxAwareBlocking returns a SegmentFunc that walks the observer to the
// merge stage, signals start, then blocks until its context ends or
// release closes — the shape of a real engine under the new ctx API.
func ctxAwareBlocking(started chan<- struct{}, release <-chan struct{}) SegmentFunc {
	return func(ctx context.Context, im *regiongrow.Image, cfg regiongrow.Config, kind regiongrow.EngineKind, obs regiongrow.Observer) (*regiongrow.Segmentation, error) {
		if obs != nil {
			obs.Observe(regiongrow.StageEvent{Kind: regiongrow.EventSplitStart})
			obs.Observe(regiongrow.StageEvent{Kind: regiongrow.EventSplitDone, Iterations: 4, Squares: 9})
			obs.Observe(regiongrow.StageEvent{Kind: regiongrow.EventGraphDone, Squares: 9})
			obs.Observe(regiongrow.StageEvent{Kind: regiongrow.EventMergeIteration, Iteration: 3, Merges: 2})
		}
		started <- struct{}{}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-release:
			seg := &regiongrow.Segmentation{W: im.W, H: im.H, Labels: make([]int32, im.W*im.H)}
			if obs != nil {
				obs.Observe(regiongrow.StageEvent{Kind: regiongrow.EventMergeDone, Iterations: 3, Regions: 1})
			}
			return seg, nil
		}
	}
}

// TestRequestTimeout504 checks a compute exceeding RequestTimeout is
// answered 504 naming the stage the job reached, counted under
// canceled_deadline, and — under the default policy — actually cancelled,
// freeing its worker without warming the cache.
func TestRequestTimeout504(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	defer close(release)
	svc, ts := newTestServer(t, Options{
		Workers:        1,
		QueueDepth:     4,
		RequestTimeout: 50 * time.Millisecond,
		Segment:        ctxAwareBlocking(started, release),
	})
	_, pgm := paperPGM(t, regiongrow.Image1NestedRects128)

	resp := postSegment(t, ts, "", pgm)
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (%s)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "deadline exceeded") || !strings.Contains(string(body), "merge (iteration 3)") {
		t.Fatalf("504 body %q does not name the deadline and the stage reached", body)
	}
	<-started

	// The worker must come free without release ever closing: the
	// deadline cancelled the compute.
	waitFor(t, func() bool { return svc.pool.InFlight() == 0 })
	if n := svc.cache.Len(); n != 0 {
		t.Fatalf("cache holds %d entries after a cancelled job, want 0", n)
	}
	st := svc.Stats()
	if st.Requests.CanceledDeadline != 1 || st.Requests.Canceled != 1 {
		t.Fatalf("canceled_deadline=%d canceled=%d, want 1 and 1",
			st.Requests.CanceledDeadline, st.Requests.Canceled)
	}
	if st.Requests.CanceledDisconnect != 0 {
		t.Fatalf("canceled_disconnect=%d, want 0", st.Requests.CanceledDisconnect)
	}
}

// TestRequestTimeout504StageText pins the stage a 504 names after every
// prefix of the engine's event sequence, under both abandonment
// policies, and checks that each timed-out job leaves all three stage
// gauges at zero once its worker is free: cancelled by the deadline by
// default, run to completion under WarmAbandoned.
func TestRequestTimeout504StageText(t *testing.T) {
	events := []regiongrow.StageEvent{
		{Kind: regiongrow.EventSplitStart},
		{Kind: regiongrow.EventSplitDone, Iterations: 4, Squares: 9},
		{Kind: regiongrow.EventGraphDone, Squares: 9},
		{Kind: regiongrow.EventMergeIteration, Iteration: 1, Merges: 3},
		{Kind: regiongrow.EventMergeIteration, Iteration: 2, Merges: 2},
		{Kind: regiongrow.EventMergeDone, Iterations: 2, Regions: 4},
	}
	for _, warm := range []bool{false, true} {
		for _, tc := range []struct {
			emitted int
			stage   string
		}{
			{0, "queued"},
			{1, "split"},
			{2, "graph build"},
			{3, "merge"},
			{5, "merge (iteration 2)"},
			{6, "result finalization"},
		} {
			t.Run(fmt.Sprintf("warm=%v/%s", warm, tc.stage), func(t *testing.T) {
				release := make(chan struct{})
				svc, ts := newTestServer(t, Options{
					Workers:        1,
					QueueDepth:     1,
					CacheEntries:   -1,
					RequestTimeout: 30 * time.Millisecond,
					WarmAbandoned:  warm,
					Segment: func(ctx context.Context, im *regiongrow.Image, cfg regiongrow.Config, kind regiongrow.EngineKind, obs regiongrow.Observer) (*regiongrow.Segmentation, error) {
						for _, ev := range events[:tc.emitted] {
							obs.Observe(ev)
						}
						select {
						case <-ctx.Done():
							return nil, ctx.Err()
						case <-release:
							return &regiongrow.Segmentation{W: im.W, H: im.H, Labels: make([]int32, im.W*im.H)}, nil
						}
					},
				})
				resp := postSegment(t, ts, "?image=image1", nil)
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				close(release)
				want := "deadline exceeded after 30ms during " + tc.stage + "\n"
				if resp.StatusCode != http.StatusGatewayTimeout || string(body) != want {
					t.Fatalf("got %d %q, want 504 %q", resp.StatusCode, body, want)
				}
				waitFor(t, func() bool { return svc.pool.InFlight() == 0 })
				if p := svc.Stats().Progress; p.InSplit != 0 || p.InGraph != 0 || p.InMerge != 0 {
					t.Fatalf("stage gauges after the job ended: %+v", p)
				}
			})
		}
	}
}

// TestDisconnectCancelsComputeByDefault checks the default abandoned-job
// policy: a client disconnect cancels the engine (the worker frees
// without the job completing), nothing warms the cache, and the outcome
// is counted as a disconnect cancellation.
func TestDisconnectCancelsComputeByDefault(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	defer close(release)
	svc := New(Options{Workers: 1, QueueDepth: 4, Segment: ctxAwareBlocking(started, release)})
	defer svc.Close()
	_, pgm := paperPGM(t, regiongrow.Image1NestedRects128)

	ctx, cancel := context.WithCancel(context.Background())
	r := httptest.NewRequestWithContext(ctx, http.MethodPost, "/v1/segment", bytes.NewReader(pgm))
	handlerDone := make(chan struct{})
	go func() {
		svc.ServeHTTP(httptest.NewRecorder(), r)
		close(handlerDone)
	}()
	<-started
	cancel() // the client goes away mid-job
	<-handlerDone

	waitFor(t, func() bool { return svc.pool.InFlight() == 0 })
	if n := svc.cache.Len(); n != 0 {
		t.Fatalf("cache holds %d entries, want 0 (default policy must not warm from abandoned jobs)", n)
	}
	st := svc.Stats()
	if st.Requests.CanceledDisconnect != 1 || st.Requests.Failed != 0 {
		t.Fatalf("canceled_disconnect=%d failed=%d, want 1 and 0",
			st.Requests.CanceledDisconnect, st.Requests.Failed)
	}
	// The job's stage gauge must have been released when the worker
	// finished with the cancelled job.
	if p := st.Progress; p.InSplit != 0 || p.InGraph != 0 || p.InMerge != 0 {
		t.Fatalf("stage gauges leaked after cancellation: %+v", p)
	}
}

// TestStatsProgress runs a real segmentation and checks the observer-fed
// progress block: totals advanced, gauges drained back to zero.
func TestStatsProgress(t *testing.T) {
	svc, ts := newTestServer(t, Options{})
	_, pgm := paperPGM(t, regiongrow.Image2Rects128)
	decodeSegment(t, postSegment(t, ts, "?engine=native", pgm))

	st := svc.Stats()
	p := st.Progress
	if p.SplitsDoneTotal < 1 {
		t.Errorf("splits_done_total = %d, want >= 1", p.SplitsDoneTotal)
	}
	if p.MergeIterationsTotal < 1 || p.MergesTotal < 1 {
		t.Errorf("merge totals = %d iters / %d merges, want >= 1 each",
			p.MergeIterationsTotal, p.MergesTotal)
	}
	if p.InSplit != 0 || p.InGraph != 0 || p.InMerge != 0 {
		t.Errorf("gauges non-zero after completion: %+v", p)
	}
}

// TestCaseInsensitiveParams checks engine and tie names parse regardless
// of case.
func TestCaseInsensitiveParams(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	_, pgm := paperPGM(t, regiongrow.Image1NestedRects128)
	got := decodeSegment(t, postSegment(t, ts, "?engine=NATIVE&tie=Random&image=IMAGE1", pgm))
	if got.Engine != "native" {
		t.Fatalf("engine = %q, want native", got.Engine)
	}
}

// TestHealthzAndStats exercises the liveness and stats endpoints.
func TestHealthzAndStats(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	_, pgm := paperPGM(t, regiongrow.Image1NestedRects128)
	decodeSegment(t, postSegment(t, ts, "?engine=native", pgm))

	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var st Stats
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Requests.Total < 1 || st.Requests.Served < 1 {
		t.Fatalf("stats requests = %+v, want at least one served", st.Requests)
	}
	eh, ok := st.Engines["native"]
	if !ok || eh.Count < 1 {
		t.Fatalf("stats missing native engine histogram: %+v", st.Engines)
	}
	if st.Queue.Workers < 1 || st.Queue.Capacity < 1 {
		t.Fatalf("stats queue = %+v", st.Queue)
	}
}

// TestStatsEnginesListOnlyServedKinds pins the key set of /v1/stats
// engines: every kind has a histogram from the start, but only kinds that
// completed a segmentation are listed, and a rejected dist request on a
// cluster-less server lists nothing.
func TestStatsEnginesListOnlyServedKinds(t *testing.T) {
	svc, ts := newTestServer(t, Options{})
	_, pgm := paperPGM(t, regiongrow.Image1NestedRects128)
	if got := svc.Stats().Engines; len(got) != 0 {
		t.Fatalf("fresh server lists engines %v", got)
	}
	decodeSegment(t, postSegment(t, ts, "?engine=native", pgm))
	decodeSegment(t, postSegment(t, ts, "?engine=sequential", pgm))
	resp := postSegment(t, ts, "?engine=dist", pgm)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("dist on a cluster-less server: status %d, want 400", resp.StatusCode)
	}
	got := svc.Stats().Engines
	if len(got) != 2 || got["native"].Count != 1 || got["sequential"].Count != 1 {
		t.Fatalf("stats engines = %+v, want exactly native and sequential, one run each", got)
	}
}

// TestLocalKindsServedWithoutCluster: a server started without cluster
// workers accepts every engine kind but dist, so every request that
// passes parameter parsing has a session to run on.
func TestLocalKindsServedWithoutCluster(t *testing.T) {
	svc, _ := newTestServer(t, Options{})
	for _, k := range regiongrow.AllEngineKinds() {
		_, err := svc.parseSegmentParams(url.Values{"engine": {k.String()}})
		if k == regiongrow.Distributed {
			if err == nil {
				t.Error("dist accepted without cluster workers")
			}
			continue
		}
		if err != nil {
			t.Errorf("%v rejected: %v", k, err)
		}
		if _, ok := svc.segmenters[k]; !ok {
			t.Errorf("%v has no session", k)
		}
	}
	if len(svc.segmenters) != len(regiongrow.AllEngineKinds())-1 {
		t.Fatalf("%d sessions, want one per local kind", len(svc.segmenters))
	}
}

// TestPoolCloseDrainsQueue checks Close waits for queued (not just
// in-flight) jobs.
func TestPoolCloseDrainsQueue(t *testing.T) {
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	done := make(chan struct{}, 8)
	task := func() {
		started <- struct{}{}
		<-release
		done <- struct{}{}
	}
	p := NewPool(1, 4)
	for i := 0; i < 3; i++ {
		if err := p.Enqueue(task); err != nil {
			t.Fatal(err)
		}
	}
	<-started
	waitFor(t, func() bool { return p.QueueDepth() == 2 })

	closed := make(chan struct{})
	go func() { p.Close(); close(closed) }()
	select {
	case <-closed:
		t.Fatal("Close returned with jobs still queued")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	<-closed
	if len(done) != 3 {
		t.Fatalf("%d jobs ran, want 3 (queued jobs dropped on Close)", len(done))
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached within 5s")
}
