package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"regiongrow"
	"regiongrow/client"
)

// recordingObserver collects stage events; safe for any engine's emitting
// goroutine.
type recordingObserver struct {
	mu     sync.Mutex
	events []regiongrow.StageEvent
}

func (r *recordingObserver) Observe(ev regiongrow.StageEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, ev)
}

func (r *recordingObserver) snapshot() []regiongrow.StageEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]regiongrow.StageEvent(nil), r.events...)
}

func testClient(t *testing.T, url string) *client.Client {
	t.Helper()
	c, err := client.New(url)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestJobRoundTripReconcilesWithLocalObserver is the acceptance check of
// the async API: POST /v1/jobs → SSE stream → GET /v1/jobs/{id}
// round-trips a run whose streamed stage events are exactly the observer
// events a local Segmenter run of the same config records, whose labels
// are byte-identical to the local run, and whose terminal SSE record
// equals what GET serves.
func TestJobRoundTripReconcilesWithLocalObserver(t *testing.T) {
	for _, kind := range []regiongrow.EngineKind{regiongrow.SequentialEngine, regiongrow.NativeParallel} {
		t.Run(kind.String(), func(t *testing.T) {
			_, ts := newTestServer(t, Options{})
			c := testClient(t, ts.URL)
			ctx := context.Background()
			im := regiongrow.GeneratePaperImage(regiongrow.Image3Circles128)
			cfg := regiongrow.Config{Threshold: 10, Tie: regiongrow.RandomTie, Seed: 1}

			rec := &recordingObserver{}
			local, err := regiongrow.New(kind, regiongrow.WithObserver(rec))
			if err != nil {
				t.Fatal(err)
			}
			localSeg, err := local.Segment(ctx, im, cfg)
			if err != nil {
				t.Fatal(err)
			}

			sub, err := c.Submit(ctx, client.JobRequest{
				PaperImage: "image3", Engine: kind, Config: cfg, Labels: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if sub.APIVersion != client.APIVersion || sub.ID == "" {
				t.Fatalf("bad submission record: %+v", sub)
			}

			var streamed []regiongrow.StageEvent
			job, err := c.Stream(ctx, sub.ID, func(ev regiongrow.StageEvent) {
				streamed = append(streamed, ev)
			})
			if err != nil {
				t.Fatal(err)
			}
			if job.State != client.StateDone {
				t.Fatalf("job state %s (error %q), want done", job.State, job.Error)
			}
			if want := rec.snapshot(); !reflect.DeepEqual(streamed, want) {
				t.Fatalf("streamed events diverge from local observer:\n got %+v\nwant %+v", streamed, want)
			}
			if !reflect.DeepEqual(job.Result.Labels, localSeg.Labels) {
				t.Fatal("job labels differ from local Segment labels")
			}
			if job.Result.FinalRegions != localSeg.FinalRegions ||
				job.Result.MergeIterations != localSeg.MergeIterations {
				t.Fatalf("job result counters %+v diverge from local run", job.Result)
			}

			got, err := c.Get(ctx, sub.ID)
			if err != nil {
				t.Fatal(err)
			}
			gotJSON, _ := json.Marshal(got)
			streamJSON, _ := json.Marshal(job)
			if !bytes.Equal(gotJSON, streamJSON) {
				t.Fatalf("GET record differs from terminal SSE record:\n get %s\n sse %s", gotJSON, streamJSON)
			}
			if got.Progress.Stage != "done" || got.Progress.Merges == 0 {
				t.Fatalf("terminal progress not filled in: %+v", got.Progress)
			}
		})
	}
}

// TestJobSSEReplay: a subscriber arriving after completion still sees the
// full event history and the terminal frame.
func TestJobSSEReplay(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	c := testClient(t, ts.URL)
	ctx := context.Background()

	sub, err := c.Submit(ctx, client.JobRequest{
		PaperImage: "image1", Engine: regiongrow.SequentialEngine,
		Config: regiongrow.Config{Threshold: 10, Tie: regiongrow.RandomTie, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, sub.ID); err != nil {
		t.Fatal(err)
	}
	// The job is long done; a late stream must replay everything.
	var replayed []regiongrow.StageEvent
	job, err := c.Stream(ctx, sub.ID, func(ev regiongrow.StageEvent) { replayed = append(replayed, ev) })
	if err != nil {
		t.Fatal(err)
	}
	if job.State != client.StateDone {
		t.Fatalf("state %s, want done", job.State)
	}
	if len(replayed) == 0 {
		t.Fatal("late subscriber saw no replayed events")
	}
	if first, last := replayed[0].Kind, replayed[len(replayed)-1].Kind; first != regiongrow.EventSplitStart || last != regiongrow.EventMergeDone {
		t.Fatalf("replay not complete: first %v, last %v", first, last)
	}
}

// TestJobCacheHit: resubmitting an identical job completes instantly from
// the result cache, marked as a hit, with no stage events.
func TestJobCacheHit(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	c := testClient(t, ts.URL)
	ctx := context.Background()
	req := client.JobRequest{
		PaperImage: "image2", Engine: regiongrow.SequentialEngine,
		Config: regiongrow.Config{Threshold: 10, Tie: regiongrow.RandomTie, Seed: 7},
	}
	first, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, first.ID); err != nil {
		t.Fatal(err)
	}
	second, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if second.State != client.StateDone || second.Cache != "hit" {
		t.Fatalf("resubmission state %s cache %s, want done/hit", second.State, second.Cache)
	}
	var events int
	if _, err := c.Stream(ctx, second.ID, func(regiongrow.StageEvent) { events++ }); err != nil {
		t.Fatal(err)
	}
	if events != 0 {
		t.Fatalf("cache-hit job streamed %d stage events, want 0", events)
	}
}

// blockingSegment is a SegmentFunc stub that parks until released or
// cancelled, so tests control job timing deterministically.
func parkedSegment(release <-chan struct{}) SegmentFunc {
	return func(ctx context.Context, im *regiongrow.Image, cfg regiongrow.Config, kind regiongrow.EngineKind, obs regiongrow.Observer) (*regiongrow.Segmentation, error) {
		select {
		case <-release:
			return &regiongrow.Segmentation{
				W: im.W, H: im.H,
				Labels: make([]int32, im.W*im.H),
			}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// TestJobCancelRunning: DELETE aborts an in-flight job's compute and the
// record settles into canceled.
func TestJobCancelRunning(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4, CacheEntries: -1, Segment: parkedSegment(release)})
	c := testClient(t, ts.URL)
	ctx := context.Background()

	sub, err := c.Submit(ctx, client.JobRequest{PaperImage: "image1", Engine: regiongrow.SequentialEngine})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Cancel(ctx, sub.ID); err != nil {
		t.Fatal(err)
	}
	job, err := c.Wait(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if job.State != client.StateCanceled {
		t.Fatalf("state %s, want canceled", job.State)
	}
	if job.Error == "" || job.FinishedAt.IsZero() {
		t.Fatalf("canceled record incomplete: %+v", job)
	}
}

// TestJobCancelQueued: a job cancelled while still waiting for a worker
// never computes and reports canceled.
func TestJobCancelQueued(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4, CacheEntries: -1, Segment: parkedSegment(release)})
	c := testClient(t, ts.URL)
	ctx := context.Background()

	// Occupy the single worker, then queue a second job behind it.
	blocker, err := c.Submit(ctx, client.JobRequest{PaperImage: "image1", Engine: regiongrow.SequentialEngine})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := c.Submit(ctx, client.JobRequest{PaperImage: "image2", Engine: regiongrow.SequentialEngine})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Cancel(ctx, queued.ID); err != nil {
		t.Fatal(err)
	}
	release <- struct{}{} // let the blocker finish so the worker reaches the canceled job
	job, err := c.Wait(ctx, queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if job.State != client.StateCanceled {
		t.Fatalf("state %s, want canceled", job.State)
	}
	if !job.StartedAt.IsZero() {
		t.Fatalf("queued-cancelled job claims to have started: %+v", job)
	}
	if _, err := c.Wait(ctx, blocker.ID); err != nil {
		t.Fatal(err)
	}
}

// TestJobTTLEviction: finished records expire after the TTL and read as
// 404 / ErrNotFound.
func TestJobTTLEviction(t *testing.T) {
	svc, ts := newTestServer(t, Options{JobTTL: 30 * time.Millisecond})
	c := testClient(t, ts.URL)
	ctx := context.Background()

	sub, err := c.Submit(ctx, client.JobRequest{
		PaperImage: "image1", Engine: regiongrow.SequentialEngine,
		Config: regiongrow.Config{Threshold: 10, Tie: regiongrow.RandomTie, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, sub.ID); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if _, err := c.Get(ctx, sub.ID); err == nil {
		t.Fatal("expired job still retrievable")
	}
	stats := svc.Stats()
	if stats.Jobs.EvictedTotal == 0 {
		t.Fatalf("eviction not counted: %+v", stats.Jobs)
	}
}

// TestJobStoreCapacity: at capacity the oldest finished record is evicted
// for a new submission; a store full of unfinished jobs rejects with 429.
func TestJobStoreCapacity(t *testing.T) {
	_, ts := newTestServer(t, Options{JobCapacity: 2, CacheEntries: -1})
	c := testClient(t, ts.URL)
	ctx := context.Background()

	ids := make([]string, 3)
	for i := range ids {
		sub, err := c.Submit(ctx, client.JobRequest{
			PaperImage: "image1", Engine: regiongrow.SequentialEngine,
			Config: regiongrow.Config{Threshold: 10 + i, Tie: regiongrow.RandomTie, Seed: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Wait(ctx, sub.ID); err != nil {
			t.Fatal(err)
		}
		ids[i] = sub.ID
	}
	if _, err := c.Get(ctx, ids[0]); err == nil {
		t.Fatal("oldest record survived capacity eviction")
	}
	if _, err := c.Get(ctx, ids[2]); err != nil {
		t.Fatalf("newest record gone: %v", err)
	}

	// Fill the store with unfinished jobs: submissions must now bounce.
	release := make(chan struct{})
	defer close(release)
	_, ts2 := newTestServer(t, Options{JobCapacity: 1, Workers: 1, QueueDepth: 4, CacheEntries: -1, Segment: parkedSegment(release)})
	c2 := testClient(t, ts2.URL)
	if _, err := c2.Submit(ctx, client.JobRequest{PaperImage: "image1", Engine: regiongrow.SequentialEngine}); err != nil {
		t.Fatal(err)
	}
	_, err := c2.Submit(ctx, client.JobRequest{PaperImage: "image2", Engine: regiongrow.SequentialEngine})
	if err == nil {
		t.Fatal("submission into a full store of running jobs succeeded")
	}
	release <- struct{}{}
}

// TestBatchManifest: a JSON manifest fans out into per-item jobs, bad
// items fail independently, and defaults match the query-parameter ones.
func TestBatchManifest(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	c := testClient(t, ts.URL)
	ctx := context.Background()
	cfg := regiongrow.Config{Threshold: 10, Tie: regiongrow.RandomTie, Seed: 1}

	results, err := c.Batch(ctx, []client.JobRequest{
		{PaperImage: "image1", Engine: regiongrow.SequentialEngine, Config: cfg},
		{PaperImage: "image2", Engine: regiongrow.NativeParallel, Config: cfg},
		{PaperImage: "image3", Engine: regiongrow.SequentialEngine, Config: cfg, Labels: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	for i, id := range []regiongrow.PaperImageID{regiongrow.Image1NestedRects128,
		regiongrow.Image2Rects128, regiongrow.Image3Circles128} {
		r := results[i]
		if r.Error != "" || r.ID == "" {
			t.Fatalf("item %d: %+v", i, r)
		}
		job, err := c.Wait(ctx, r.ID)
		if err != nil {
			t.Fatal(err)
		}
		if job.State != client.StateDone {
			t.Fatalf("item %d: state %s (%s)", i, job.State, job.Error)
		}
		if want := localFinalRegions(t, id, cfg); job.Result.FinalRegions != want {
			t.Fatalf("item %d: %d final regions, want %d", i, job.Result.FinalRegions, want)
		}
	}
	if job, _ := c.Get(ctx, results[2].ID); job == nil || job.Result.Labels == nil {
		t.Fatal("labels=true batch item carries no labels")
	}

	// Raw manifest: omitted fields adopt defaults, bad items fail alone.
	body := `{"items":[{"image":"image1"},{"image":"nope"},{"image":"image2","engine":"warp-drive"}]}`
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var br client.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if len(br.Jobs) != 3 {
		t.Fatalf("got %d results, want 3", len(br.Jobs))
	}
	if br.Jobs[0].ID == "" || br.Jobs[0].Error != "" {
		t.Fatalf("defaulted item rejected: %+v", br.Jobs[0])
	}
	if br.Jobs[1].Error == "" || br.Jobs[2].Error == "" {
		t.Fatalf("bad items accepted: %+v", br.Jobs[1:])
	}
	job, err := c.Wait(ctx, br.Jobs[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	// Defaults are threshold 10, tie random, seed 1, sequential.
	if job.Config.Threshold != 10 || job.Config.Tie != regiongrow.RandomTie || job.Config.Seed != 1 ||
		job.Engine != regiongrow.SequentialEngine {
		t.Fatalf("manifest defaults wrong: %+v engine %v", job.Config, job.Engine)
	}
}

// TestBatchMultipart: a multipart set of PGMs fans out under the shared
// query config, results in part order.
func TestBatchMultipart(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	c := testClient(t, ts.URL)
	ctx := context.Background()
	cfg := regiongrow.Config{Threshold: 10, Tie: regiongrow.RandomTie, Seed: 1}

	im1 := regiongrow.GeneratePaperImage(regiongrow.Image1NestedRects128)
	im3 := regiongrow.GeneratePaperImage(regiongrow.Image3Circles128)
	results, err := c.BatchImages(ctx, []*regiongrow.Image{im1, im3}, client.JobRequest{
		Engine: regiongrow.SequentialEngine, Config: cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2", len(results))
	}
	for i, id := range []regiongrow.PaperImageID{regiongrow.Image1NestedRects128, regiongrow.Image3Circles128} {
		if results[i].Error != "" {
			t.Fatalf("part %d: %s", i, results[i].Error)
		}
		job, err := c.Wait(ctx, results[i].ID)
		if err != nil {
			t.Fatal(err)
		}
		want := localFinalRegions(t, id, cfg)
		if job.State != client.StateDone || job.Result.FinalRegions != want {
			t.Fatalf("part %d: state %s, %d regions, want done/%d", i, job.State, job.Result.FinalRegions, want)
		}
	}
}

// localFinalRegions runs the reference engine locally for comparison.
func localFinalRegions(t *testing.T, id regiongrow.PaperImageID, cfg regiongrow.Config) int {
	t.Helper()
	seg, err := segmentLocal(regiongrow.GeneratePaperImage(id), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return seg.FinalRegions
}

// TestSyncSegmentRunsOnJobMachinery: every synchronous request registers
// a job record too — the machinery is shared, not parallel.
func TestSyncSegmentRunsOnJobMachinery(t *testing.T) {
	svc, ts := newTestServer(t, Options{})
	resp := postSegment(t, ts, "?image=image1", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	stats := svc.Stats()
	if stats.Jobs.SubmittedTotal != 1 || stats.Jobs.Done != 1 {
		t.Fatalf("sync request not visible in job stats: %+v", stats.Jobs)
	}
}

// TestSegmentResponseSchemaPinned walks the JSON key stream of a
// /v1/segment response and compares it to the PR 3 schema, so the
// synchronous compatibility path cannot drift while it is reimplemented
// on the job machinery.
func TestSegmentResponseSchemaPinned(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp := postSegment(t, ts, "?image=image1&engine=cm5-async", nil)
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	keys := jsonKeyOrder(t, body, 2)
	want := "engine cache image name width height sha256 config threshold tie seed max_square " +
		"result final_regions split_iterations merge_iterations squares_after_split " +
		"split_wall_ms merge_wall_ms split_sim_s merge_sim_s regions"
	if got := strings.Join(keys, " "); got != want {
		t.Fatalf("/v1/segment schema drifted:\n got %s\nwant %s", got, want)
	}
}

// jsonKeyOrder walks a JSON document's token stream and returns the
// object keys in document order, down to maxDepth object-nesting levels
// (deeper objects — e.g. the entries of the regions array — are skipped).
func jsonKeyOrder(t *testing.T, doc []byte, maxDepth int) []string {
	t.Helper()
	type frame struct {
		isObj     bool
		expectKey bool
	}
	var stack []frame
	var keys []string
	objDepth := 0
	top := func() *frame {
		if len(stack) == 0 {
			return nil
		}
		return &stack[len(stack)-1]
	}
	dec := json.NewDecoder(bytes.NewReader(doc))
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return keys
		}
		if err != nil {
			t.Fatal(err)
		}
		if d, ok := tok.(json.Delim); ok {
			switch d {
			case '{':
				stack = append(stack, frame{isObj: true, expectKey: true})
				objDepth++
			case '[':
				stack = append(stack, frame{})
			case '}':
				objDepth--
				fallthrough
			case ']':
				stack = stack[:len(stack)-1]
				if f := top(); f != nil && f.isObj {
					f.expectKey = true
				}
			}
			continue
		}
		f := top()
		if f == nil || !f.isObj {
			continue // array element or bare scalar
		}
		if f.expectKey {
			if s, ok := tok.(string); ok && objDepth <= maxDepth {
				keys = append(keys, s)
			}
			f.expectKey = false
		} else {
			f.expectKey = true // just consumed this key's scalar value
		}
	}
}

// TestJobNotFound: unknown IDs answer 404 on every job endpoint.
func TestJobNotFound(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, probe := range []struct{ method, path string }{
		{http.MethodGet, "/v1/jobs/job-doesnotexist"},
		{http.MethodGet, "/v1/jobs/job-doesnotexist/events"},
		{http.MethodDelete, "/v1/jobs/job-doesnotexist"},
	} {
		req, _ := http.NewRequest(probe.method, ts.URL+probe.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s %s: status %d, want 404", probe.method, probe.path, resp.StatusCode)
		}
	}
}

// TestJobSubmitBadRequests: parse failures on /v1/jobs and /v1/batch
// answer 400 with a usable message.
func TestJobSubmitBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, q := range []string{"?image=image9", "?image=image1&engine=warp", "?image=image1&threshold=-4"} {
		resp, err := http.Post(ts.URL+"/v1/jobs"+q, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d (%s), want 400", q, resp.StatusCode, body)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(`{"items":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d, want 400", resp.StatusCode)
	}
}

// TestJobQueueFull429: a saturated pool rejects job submissions with 429
// and Retry-After, and no phantom record lingers.
func TestJobQueueFull429(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	svc, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 1, CacheEntries: -1, Segment: parkedSegment(release)})
	c := testClient(t, ts.URL)
	ctx := context.Background()

	// One running, one queued; the third must bounce.
	for i := 0; i < 2; i++ {
		if _, err := c.Submit(ctx, client.JobRequest{PaperImage: fmt.Sprintf("image%d", i+1), Engine: regiongrow.SequentialEngine}); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/jobs?image=image3", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if got := svc.Stats().Jobs.SubmittedTotal; got != 2 {
		t.Fatalf("rejected submission left a record: submitted_total %d, want 2", got)
	}
	release <- struct{}{}
	release <- struct{}{}
}

// TestEveryAnswerPathServesRegionStats: the region statistics the pool
// worker computes once per result reach the client unchanged on every
// answer path. Each answer's result.regions must equal
// ComputeRegionStats of a local sequential run: a /v1/segment JSON miss
// and its hit; a JSON hit on a key a format=pgm miss computed (statistics
// the PGM reply never sent); an async job's miss and hit read back
// through GET /v1/jobs/{id}; a manifest and a multipart batch item. A
// server with caching disabled must answer the same, all misses.
func TestEveryAnswerPathServesRegionStats(t *testing.T) {
	cfg := regiongrow.Config{Threshold: 10, Tie: regiongrow.RandomTie, Seed: 1}
	want := make(map[regiongrow.PaperImageID][]byte)
	for _, id := range regiongrow.AllPaperImageIDs() {
		im := regiongrow.GeneratePaperImage(id)
		seg, err := segmentLocal(im, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want[id], err = json.Marshal(regiongrow.ComputeRegionStats(seg, im)); err != nil {
			t.Fatal(err)
		}
	}
	for _, cacheEntries := range []int{0, -1} {
		_, ts := newTestServer(t, Options{CacheEntries: cacheEntries})
		c := testClient(t, ts.URL)
		ctx := context.Background()
		hit := "hit"
		if cacheEntries < 0 {
			hit = "miss"
		}
		check := func(path, wantCache string, id regiongrow.PaperImageID, body []byte) {
			t.Helper()
			var doc struct {
				Cache  string `json:"cache"`
				Result struct {
					Regions json.RawMessage `json:"regions"`
				} `json:"result"`
			}
			if err := json.Unmarshal(body, &doc); err != nil {
				t.Fatalf("cache=%d %s: decoding %q: %v", cacheEntries, path, body, err)
			}
			var got bytes.Buffer
			if err := json.Compact(&got, doc.Result.Regions); err != nil {
				t.Fatalf("cache=%d %s: %v", cacheEntries, path, err)
			}
			if doc.Cache != wantCache {
				t.Errorf("cache=%d %s: cache %q, want %q", cacheEntries, path, doc.Cache, wantCache)
			}
			if !bytes.Equal(got.Bytes(), want[id]) {
				t.Errorf("cache=%d %s: regions differ from ComputeRegionStats\n got %s\nwant %s", cacheEntries, path, got.Bytes(), want[id])
			}
		}
		segment := func(query string) []byte {
			t.Helper()
			resp := postSegment(t, ts, query, nil)
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("cache=%d POST /v1/segment%s: status %d, %v: %s", cacheEntries, query, resp.StatusCode, err, body)
			}
			return body
		}
		record := func(id string) []byte {
			t.Helper()
			if _, err := c.Wait(ctx, id); err != nil {
				t.Fatal(err)
			}
			resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("cache=%d GET /v1/jobs/%s: status %d, %v: %s", cacheEntries, id, resp.StatusCode, err, body)
			}
			return body
		}

		check("segment miss", "miss", regiongrow.Image1NestedRects128, segment("?image=image1"))
		check("segment hit", hit, regiongrow.Image1NestedRects128, segment("?image=image1"))

		segment("?image=image2&format=pgm")
		check("JSON after a PGM miss", hit, regiongrow.Image2Rects128, segment("?image=image2"))

		job := client.JobRequest{PaperImage: "image3", Engine: regiongrow.SequentialEngine, Config: cfg}
		for _, cache := range []string{"miss", hit} {
			j, err := c.Submit(ctx, job)
			if err != nil {
				t.Fatal(err)
			}
			check("job "+cache, cache, regiongrow.Image3Circles128, record(j.ID))
		}

		batch, err := c.Batch(ctx, []client.JobRequest{{PaperImage: "image4", Engine: regiongrow.SequentialEngine, Config: cfg}})
		if err != nil || batch[0].Error != "" {
			t.Fatalf("cache=%d manifest batch: %v %+v", cacheEntries, err, batch)
		}
		check("manifest item", "miss", regiongrow.Image4NestedRects256, record(batch[0].ID))

		batch, err = c.BatchImages(ctx, []*regiongrow.Image{regiongrow.GeneratePaperImage(regiongrow.Image5Rects256)},
			client.JobRequest{Engine: regiongrow.SequentialEngine, Config: cfg})
		if err != nil || batch[0].Error != "" {
			t.Fatalf("cache=%d multipart batch: %v %+v", cacheEntries, err, batch)
		}
		check("multipart item", "miss", regiongrow.Image5Rects256, record(batch[0].ID))
	}
}
