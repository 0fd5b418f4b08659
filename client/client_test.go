package client_test

import (
	"bytes"
	"context"
	"errors"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"regiongrow"
	"regiongrow/client"
	"regiongrow/internal/server"
)

// segmentLocal runs the sequential reference engine in-process.
func segmentLocal(im *regiongrow.Image, cfg regiongrow.Config) (*regiongrow.Segmentation, error) {
	s, err := regiongrow.New(regiongrow.SequentialEngine)
	if err != nil {
		return nil, err
	}
	return s.Segment(context.Background(), im, cfg)
}

func newService(t *testing.T, opts server.Options) *client.Client {
	t.Helper()
	svc := server.New(opts)
	ts := httptest.NewServer(svc)
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	c, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestWaitByteIdenticalToLocalSegment is the SDK acceptance check:
// client.Wait results are byte-identical to local Segment for all six
// paper images.
func TestWaitByteIdenticalToLocalSegment(t *testing.T) {
	c := newService(t, server.Options{})
	ctx := context.Background()
	cfg := regiongrow.Config{Threshold: 10, Tie: regiongrow.RandomTie, Seed: 1}
	for _, id := range regiongrow.AllPaperImageIDs() {
		im := regiongrow.GeneratePaperImage(id)
		want, err := segmentLocal(im, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sub, err := c.Submit(ctx, client.JobRequest{
			PaperImage: id.ShortName(), Engine: regiongrow.SequentialEngine,
			Config: cfg, Labels: true,
		})
		if err != nil {
			t.Fatalf("%v: %v", id, err)
		}
		job, err := c.Wait(ctx, sub.ID)
		if err != nil {
			t.Fatalf("%v: %v", id, err)
		}
		if job.State != client.StateDone {
			t.Fatalf("%v: state %s (%s)", id, job.State, job.Error)
		}
		if !reflect.DeepEqual(job.Result.Labels, want.Labels) {
			t.Fatalf("%v: remote labels differ from local Segment", id)
		}
		if job.Result.FinalRegions != want.FinalRegions ||
			job.Result.MergeIterations != want.MergeIterations ||
			job.Result.SplitIterations != want.SplitIterations ||
			job.Result.SquaresAfterSplit != want.SquaresAfterSplit {
			t.Fatalf("%v: remote counters diverge: %+v", id, job.Result)
		}
	}
}

// TestStreamDeliversTypedEvents: streamed events convert back to the
// exact facade StageEvents a local observer sees.
func TestStreamDeliversTypedEvents(t *testing.T) {
	c := newService(t, server.Options{})
	ctx := context.Background()
	cfg := regiongrow.Config{Threshold: 10, Tie: regiongrow.RandomTie, Seed: 1}

	var mu sync.Mutex
	var local []regiongrow.StageEvent
	s, err := regiongrow.New(regiongrow.SequentialEngine,
		regiongrow.WithObserver(regiongrow.ObserverFunc(func(ev regiongrow.StageEvent) {
			mu.Lock()
			local = append(local, ev)
			mu.Unlock()
		})))
	if err != nil {
		t.Fatal(err)
	}
	im := regiongrow.GeneratePaperImage(regiongrow.Image2Rects128)
	if _, err := s.Segment(ctx, im, cfg); err != nil {
		t.Fatal(err)
	}

	sub, err := c.Submit(ctx, client.JobRequest{Image: im, Engine: regiongrow.SequentialEngine, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	var streamed []regiongrow.StageEvent
	job, err := c.Stream(ctx, sub.ID, func(ev regiongrow.StageEvent) { streamed = append(streamed, ev) })
	if err != nil {
		t.Fatal(err)
	}
	if job.State != client.StateDone {
		t.Fatalf("state %s", job.State)
	}
	if !reflect.DeepEqual(streamed, local) {
		t.Fatalf("streamed events diverge:\n got %+v\nwant %+v", streamed, local)
	}
}

// TestCancelSettlesCanceled: Cancel aborts a slow simulated run and Wait
// reports the canceled record.
func TestCancelSettlesCanceled(t *testing.T) {
	c := newService(t, server.Options{})
	ctx := context.Background()
	// The simulated CM-2 run on a 256px image is slow enough to cancel
	// mid-flight; if it ever finishes first the test still accepts done.
	sub, err := c.Submit(ctx, client.JobRequest{
		PaperImage: "image6", Engine: regiongrow.CM2DataParallel8K,
		Config: regiongrow.Config{Threshold: 10, Tie: regiongrow.RandomTie, Seed: 1},
	})
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
	if job.State != client.StateCanceled && job.State != client.StateDone {
		t.Fatalf("state %s, want canceled (or done if the race was lost)", job.State)
	}
}

// TestBatchRoundTrip: a manifest batch returns waitable IDs for every
// item.
func TestBatchRoundTrip(t *testing.T) {
	c := newService(t, server.Options{})
	ctx := context.Background()
	cfg := regiongrow.Config{Threshold: 10, Tie: regiongrow.RandomTie, Seed: 1}
	reqs := []client.JobRequest{
		{PaperImage: "image1", Engine: regiongrow.SequentialEngine, Config: cfg},
		{PaperImage: "image2", Engine: regiongrow.SequentialEngine, Config: cfg},
	}
	results, err := c.Batch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(reqs) {
		t.Fatalf("got %d results, want %d", len(results), len(reqs))
	}
	for i, r := range results {
		if r.Index != i || r.ID == "" || r.Error != "" {
			t.Fatalf("result %d: %+v", i, r)
		}
		job, err := c.Wait(ctx, r.ID)
		if err != nil {
			t.Fatal(err)
		}
		if job.State != client.StateDone {
			t.Fatalf("item %d: state %s (%s)", i, job.State, job.Error)
		}
	}
}

// TestRecolouredMatchesLocal: the synchronous PGM path through the SDK
// equals the library's Recolour, pixel for pixel.
func TestRecolouredMatchesLocal(t *testing.T) {
	c := newService(t, server.Options{})
	ctx := context.Background()
	cfg := regiongrow.Config{Threshold: 10, Tie: regiongrow.RandomTie, Seed: 1}
	im := regiongrow.GeneratePaperImage(regiongrow.Image3Circles128)

	got, err := c.Recoloured(ctx, client.JobRequest{Image: im, Engine: regiongrow.SequentialEngine, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	seg, err := segmentLocal(im, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := regiongrow.Recolour(seg, im)
	if got.W != want.W || got.H != want.H || !bytes.Equal(got.Pix, want.Pix) {
		t.Fatal("recoloured raster differs from local Recolour")
	}
}

// TestNotFoundAndBusyClassification: HTTP statuses map onto the SDK's
// sentinel errors.
func TestNotFoundAndBusyClassification(t *testing.T) {
	c := newService(t, server.Options{})
	ctx := context.Background()
	if _, err := c.Get(ctx, "job-nope"); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("Get(unknown) = %v, want ErrNotFound", err)
	}
	if _, err := c.Wait(ctx, "job-nope"); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("Wait(unknown) = %v, want ErrNotFound", err)
	}
}

// TestJobRequestValidation: requests must pick exactly one image source.
func TestJobRequestValidation(t *testing.T) {
	c := newService(t, server.Options{})
	ctx := context.Background()
	if _, err := c.Submit(ctx, client.JobRequest{}); err == nil {
		t.Fatal("empty request accepted")
	}
	im := regiongrow.GeneratePaperImage(regiongrow.Image1NestedRects128)
	if _, err := c.Submit(ctx, client.JobRequest{PaperImage: "image1", Image: im}); err == nil {
		t.Fatal("double image source accepted")
	}
	if _, err := client.New("not-a-url"); err == nil {
		t.Fatal("bad base URL accepted")
	}
}
