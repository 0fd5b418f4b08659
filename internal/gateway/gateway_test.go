package gateway_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"regiongrow"
	"regiongrow/client"
	"regiongrow/internal/gateway"
	"regiongrow/internal/server"
)

// newBackend starts one regiongrowd replica with a stable instance ID,
// returning its host:port (the form ring members use) and the in-process
// server for direct stats assertions.
func newBackend(t testing.TB, instance string, opts server.Options) (addr string, svc *server.Server) {
	t.Helper()
	opts.Instance = instance
	svc = server.New(opts)
	ts := httptest.NewServer(svc)
	t.Cleanup(func() { ts.Close(); svc.Close() })
	return strings.TrimPrefix(ts.URL, "http://"), svc
}

// newGateway builds a gateway over opts and serves it, returning the
// gateway, its base URL, and an SDK client pointed at it.
func newGateway(t testing.TB, opts gateway.Options) (*gateway.Gateway, string, *client.Client) {
	t.Helper()
	gw, err := gateway.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gw)
	t.Cleanup(func() { ts.Close(); gw.Close() })
	c, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	return gw, ts.URL, c
}

// thresholdOwnedBy finds a threshold whose image1 cache key the ring
// assigns to the wanted backend — how tests steer a submission to a
// chosen replica without bypassing the router.
func thresholdOwnedBy(t *testing.T, gw *gateway.Gateway, addr string, kind regiongrow.EngineKind) int {
	t.Helper()
	im := regiongrow.GeneratePaperImage(regiongrow.Image1NestedRects128)
	for th := 1; th <= 200; th++ {
		cfg := regiongrow.Config{Threshold: th, Tie: regiongrow.RandomTie, Seed: 1}
		owner, ok := gw.Ring().Owner(regiongrow.CacheKey(im, cfg, kind))
		if ok && owner == addr {
			return th
		}
	}
	t.Fatalf("no threshold in [1,200] routes image1 to %s", addr)
	return 0
}

// TestGatewayRoutingStickiness: the same submission through the gateway
// lands on the same backend every time, so the second request is that
// replica's cache hit — and the other replica never sees the key.
func TestGatewayRoutingStickiness(t *testing.T) {
	a1, svc1 := newBackend(t, "b1", server.Options{})
	a2, svc2 := newBackend(t, "b2", server.Options{})
	_, base, _ := newGateway(t, gateway.Options{Backends: []string{a1, a2}})

	post := func() (backend string) {
		t.Helper()
		resp, err := http.Post(base+"/v1/segment?image=image1&threshold=10&tie=random&seed=1", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("segment via gateway: %s", resp.Status)
		}
		if got := resp.Header.Get("X-Regiongrow-Backend"); got == "" {
			t.Fatal("no backend attribution header")
		} else {
			backend = got
		}
		return backend
	}
	first := post()
	second := post()
	if first != second {
		t.Fatalf("same key routed to %s then %s", first, second)
	}
	ownerStats, otherStats := svc1.Stats(), svc2.Stats()
	if first == a2 {
		ownerStats, otherStats = otherStats, ownerStats
	}
	if ownerStats.Cache.Hits != 1 || ownerStats.Cache.Misses != 1 {
		t.Errorf("owner cache hits/misses = %d/%d, want 1/1", ownerStats.Cache.Hits, ownerStats.Cache.Misses)
	}
	if otherStats.Cache.Hits+otherStats.Cache.Misses != 0 {
		t.Errorf("non-owner backend saw the key: hits/misses = %d/%d", otherStats.Cache.Hits, otherStats.Cache.Misses)
	}
}

// TestGatewayJobLifecycleAcrossBackends: jobs steered to each backend
// are retrievable, streamable (SSE through the proxy), and cancelable
// through the gateway, because the job ID names its minting replica.
func TestGatewayJobLifecycleAcrossBackends(t *testing.T) {
	a1, _ := newBackend(t, "b1", server.Options{})
	a2, _ := newBackend(t, "b2", server.Options{})
	gw, _, c := newGateway(t, gateway.Options{Backends: []string{a1, a2}})
	ctx := context.Background()

	for _, want := range []struct{ addr, instance string }{{a1, "b1"}, {a2, "b2"}} {
		th := thresholdOwnedBy(t, gw, want.addr, regiongrow.SequentialEngine)
		sub, err := c.Submit(ctx, client.JobRequest{
			PaperImage: "image1", Engine: regiongrow.SequentialEngine,
			Config: regiongrow.Config{Threshold: th, Tie: regiongrow.RandomTie, Seed: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		if inst, ok := server.ParseJobInstance(sub.ID); !ok || inst != want.instance {
			t.Fatalf("job %s minted by %q, want %q", sub.ID, inst, want.instance)
		}
		var events int
		job, err := c.Stream(ctx, sub.ID, func(regiongrow.StageEvent) { events++ })
		if err != nil {
			t.Fatalf("streaming %s through the gateway: %v", sub.ID, err)
		}
		if job.State != client.StateDone || events == 0 {
			t.Fatalf("job %s: state %s after %d events", sub.ID, job.State, events)
		}
		got, err := c.Get(ctx, sub.ID)
		if err != nil || got.Result == nil {
			t.Fatalf("Get(%s) through the gateway: %+v, %v", sub.ID, got, err)
		}
		if _, err := c.Cancel(ctx, sub.ID); err != nil {
			t.Fatalf("Cancel(%s) (terminal no-op) through the gateway: %v", sub.ID, err)
		}
	}
}

// TestGatewayUnknownInstance: job IDs minted outside the fleet (or by a
// departed backend) answer 404, not a hang or a misroute.
func TestGatewayUnknownInstance(t *testing.T) {
	a1, _ := newBackend(t, "b1", server.Options{})
	_, _, c := newGateway(t, gateway.Options{Backends: []string{a1}})
	_, err := c.Get(context.Background(), "job-nosuch-0011223344556677")
	if err == nil || !strings.Contains(err.Error(), "nosuch") {
		t.Fatalf("lookup of foreign job: %v", err)
	}
}

// TestGatewayBatchFanout: a batch spreads its items over the fleet by
// key, each item's job landing on (and retrievable from) the replica
// the ring predicted.
func TestGatewayBatchFanout(t *testing.T) {
	a1, _ := newBackend(t, "b1", server.Options{})
	a2, _ := newBackend(t, "b2", server.Options{})
	gw, _, c := newGateway(t, gateway.Options{Backends: []string{a1, a2}})
	ctx := context.Background()

	cfg := regiongrow.Config{Threshold: 10, Tie: regiongrow.RandomTie, Seed: 1}
	var reqs []client.JobRequest
	var wantInstance []string
	for _, name := range []string{"image1", "image2", "image3"} {
		id, err := regiongrow.ParsePaperImageID(name)
		if err != nil {
			t.Fatal(err)
		}
		im := regiongrow.GeneratePaperImage(id)
		owner, _ := gw.Ring().Owner(regiongrow.CacheKey(im, cfg, regiongrow.SequentialEngine))
		inst := "b1"
		if owner == a2 {
			inst = "b2"
		}
		wantInstance = append(wantInstance, inst)
		reqs = append(reqs, client.JobRequest{PaperImage: name, Engine: regiongrow.SequentialEngine, Config: cfg})
	}
	results, err := c.Batch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(reqs) {
		t.Fatalf("%d results for %d items", len(results), len(reqs))
	}
	for i, r := range results {
		if r.Error != "" || r.ID == "" {
			t.Fatalf("item %d: %+v", i, r)
		}
		if inst, _ := server.ParseJobInstance(r.ID); inst != wantInstance[i] {
			t.Errorf("item %d landed on %q, ring predicted %q", i, inst, wantInstance[i])
		}
		job, err := c.Wait(ctx, r.ID)
		if err != nil || job.State != client.StateDone {
			t.Fatalf("item %d job %s: %v (%v)", i, r.ID, job, err)
		}
	}
}

// TestGatewayBatchRejectsUnknownFields: a manifest with a misspelled
// field is refused alike by a backend and through the gateway, rather
// than run at the edge under the default the misspelling hid, and no
// job is submitted for it.
func TestGatewayBatchRejectsUnknownFields(t *testing.T) {
	addr, svc := newBackend(t, "b1", server.Options{})
	_, gwURL, _ := newGateway(t, gateway.Options{Backends: []string{addr}})
	const manifest = `{"items":[{"image":"image1","treshold":3}]}`
	var bodies []string
	for _, base := range []string{"http://" + addr, gwURL} {
		resp, err := http.Post(base+"/v1/batch", "application/json", strings.NewReader(manifest))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", base, resp.StatusCode, body)
		}
		bodies = append(bodies, string(body))
	}
	if bodies[0] != bodies[1] {
		t.Errorf("gateway error %q differs from the backend's %q", bodies[1], bodies[0])
	}
	if n := svc.Stats().Jobs.SubmittedTotal; n != 0 {
		t.Fatalf("backend submitted_total = %d, want 0", n)
	}
}

// TestGatewayFailoverOnDeadOwner: a submission whose home backend just
// died is served by the clockwise-next replica within the same request,
// and the failure ejects the dead backend from the ring immediately
// (EjectAfter=1) rather than waiting for the next health sweep. A batch
// item fails over alike: its job ID comes from the survivor.
func TestGatewayFailoverOnDeadOwner(t *testing.T) {
	submits := map[string]func(t *testing.T, base string, c *client.Client, th int) (instance string){
		"segment": func(t *testing.T, base string, _ *client.Client, th int) string {
			url := fmt.Sprintf("%s/v1/segment?image=image1&threshold=%d&tie=random&seed=1", base, th)
			resp, err := http.Post(url, "", nil)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			io.Copy(io.Discard, resp.Body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("failover submission: %s", resp.Status)
			}
			return resp.Header.Get("X-Regiongrow-Backend-Instance")
		},
		"batch": func(t *testing.T, _ string, c *client.Client, th int) string {
			results, err := c.Batch(context.Background(), []client.JobRequest{{
				PaperImage: "image1", Engine: regiongrow.SequentialEngine,
				Config: regiongrow.Config{Threshold: th, Tie: regiongrow.RandomTie, Seed: 1},
			}})
			if err != nil {
				t.Fatal(err)
			}
			if len(results) != 1 || results[0].Error != "" {
				t.Fatalf("failover batch: %+v", results)
			}
			inst, _ := server.ParseJobInstance(results[0].ID)
			return inst
		},
	}
	for name, submit := range submits {
		t.Run(name, func(t *testing.T) {
			a1, _ := newBackend(t, "b1", server.Options{})

			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			svc2 := server.New(server.Options{Instance: "b2"})
			defer svc2.Close()
			hs := &http.Server{Handler: svc2}
			go hs.Serve(l)
			a2 := l.Addr().String()

			gw, base, c := newGateway(t, gateway.Options{
				Backends:       []string{a1, a2},
				HealthInterval: time.Hour, // isolate the request-path ejection
				EjectAfter:     1,
			})
			if gw.Ring().Len() != 2 {
				t.Fatalf("ring has %d members after startup probes, want 2", gw.Ring().Len())
			}
			th := thresholdOwnedBy(t, gw, a2, regiongrow.SequentialEngine)
			hs.Close() // b2 dies with keys assigned

			if got := submit(t, base, c, th); got != "b1" {
				t.Fatalf("served by instance %q, want failover to b1", got)
			}
			if gw.Ring().Len() != 1 {
				t.Fatalf("dead backend still in ring (len %d)", gw.Ring().Len())
			}
		})
	}
}

// TestGatewayEjectionAndReadmission: the health loop ejects a backend
// that stops answering probes and readmits it when it returns, while
// the fleet keeps serving throughout.
func TestGatewayEjectionAndReadmission(t *testing.T) {
	a1, _ := newBackend(t, "b1", server.Options{})

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	svc2 := server.New(server.Options{Instance: "b2"})
	defer svc2.Close()
	hs := &http.Server{Handler: svc2}
	go hs.Serve(l)
	a2 := l.Addr().String()

	gw, base, c := newGateway(t, gateway.Options{
		Backends:       []string{a1, a2},
		HealthInterval: 25 * time.Millisecond,
		ProbeTimeout:   250 * time.Millisecond,
		EjectAfter:     2,
	})
	waitRing := func(want int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for gw.Ring().Len() != want {
			if time.Now().After(deadline) {
				t.Fatalf("ring stuck at %d members, want %d", gw.Ring().Len(), want)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	waitRing(2)
	hs.Close()
	waitRing(1)

	// The fleet keeps serving with the survivor...
	resp, err := http.Post(base+"/v1/segment?image=image2", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fleet stopped serving after ejection: %s", resp.Status)
	}
	// ...and reports the ejected member as fleet-visible but out of the
	// ring.
	st, err := c.Fleet(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Backends != 2 {
		t.Fatalf("fleet lost a member: %+v", st)
	}
	for _, m := range st.Members {
		if m.Addr == a2 && (m.Healthy || m.InRing) {
			t.Fatalf("dead backend reported healthy/in-ring: %+v", m)
		}
	}

	// Restart on the same address: the loop readmits it.
	l2, err := net.Listen("tcp", a2)
	if err != nil {
		t.Skipf("could not rebind %s: %v", a2, err)
	}
	hs2 := &http.Server{Handler: svc2}
	go hs2.Serve(l2)
	defer hs2.Close()
	waitRing(2)
}

// TestGatewayRateLimit: the per-client token bucket answers the
// over-budget submission 429 with a Retry-After, before any backend
// sees it.
func TestGatewayRateLimit(t *testing.T) {
	a1, svc1 := newBackend(t, "b1", server.Options{})
	_, base, _ := newGateway(t, gateway.Options{
		Backends:   []string{a1},
		RatePerSec: 0.001, // effectively no refill within the test
		Burst:      2,
	})
	post := func() *http.Response {
		t.Helper()
		resp, err := http.Post(base+"/v1/segment?image=image1", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	if r := post(); r.StatusCode != http.StatusOK {
		t.Fatalf("first submission: %s", r.Status)
	}
	if r := post(); r.StatusCode != http.StatusOK {
		t.Fatalf("second submission: %s", r.Status)
	}
	before := svc1.Stats().Jobs.SubmittedTotal
	r := post()
	if r.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget submission: %s, want 429", r.Status)
	}
	if r.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if after := svc1.Stats().Jobs.SubmittedTotal; after != before {
		t.Fatalf("rate-limited request reached the backend (%d -> %d jobs)", before, after)
	}
}

// TestGatewayStatsAggregation: GET /v1/stats through the gateway
// reports its own counters plus every backend's live stats document,
// attributable by instance.
func TestGatewayStatsAggregation(t *testing.T) {
	a1, _ := newBackend(t, "b1", server.Options{})
	a2, _ := newBackend(t, "b2", server.Options{})
	_, base, c := newGateway(t, gateway.Options{Backends: []string{a1, a2}})
	ctx := context.Background()

	job, err := c.Submit(ctx, client.JobRequest{PaperImage: "image1", Engine: regiongrow.SequentialEngine,
		Config: regiongrow.Config{Threshold: 10, Tie: regiongrow.RandomTie, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, job.ID); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st gateway.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Instance == "" || st.StartedAt.IsZero() {
		t.Fatalf("gateway identity missing: %+v", st)
	}
	if st.Fleet.Backends != 2 || st.Fleet.InRing != 2 {
		t.Fatalf("fleet summary %+v, want 2 backends in ring", st.Fleet)
	}
	if st.Gateway.Submitted != 1 || st.Gateway.Proxied == 0 {
		t.Fatalf("gateway counters %+v", st.Gateway)
	}
	if st.Totals.JobsSubmitted < 1 {
		t.Fatalf("fleet totals %+v", st.Totals)
	}
	instances := map[string]bool{}
	for _, b := range st.Backends {
		if b.Stats == nil {
			t.Fatalf("backend %s contributed no stats document", b.Addr)
		}
		if b.Instance != b.Stats.Instance {
			t.Fatalf("membership instance %q != stats instance %q", b.Instance, b.Stats.Instance)
		}
		instances[b.Instance] = true
	}
	if !instances["b1"] || !instances["b2"] {
		t.Fatalf("aggregation missing a backend: %v", instances)
	}
}

// TestGatewayFleetJoinLeave: membership is dynamic — a joined backend
// starts owning keys, a departed one stops, and the last member cannot
// leave.
func TestGatewayFleetJoinLeave(t *testing.T) {
	a1, _ := newBackend(t, "b1", server.Options{})
	a2, _ := newBackend(t, "b2", server.Options{})
	gw, _, c := newGateway(t, gateway.Options{Backends: []string{a1}})
	ctx := context.Background()

	upd, err := c.FleetJoin(ctx, a2)
	if err != nil || !upd.Changed || len(upd.Members) != 2 {
		t.Fatalf("join: %+v, %v", upd, err)
	}
	if gw.Ring().Len() != 2 {
		t.Fatalf("joined backend not admitted to the ring")
	}
	// Joining again is a no-op, not an error.
	if upd, err = c.FleetJoin(ctx, a2); err != nil || upd.Changed {
		t.Fatalf("re-join: %+v, %v", upd, err)
	}
	if upd, err = c.FleetLeave(ctx, a2); err != nil || !upd.Changed || len(upd.Members) != 1 {
		t.Fatalf("leave: %+v, %v", upd, err)
	}
	if gw.Ring().Len() != 1 {
		t.Fatal("departed backend still owns keys")
	}
	if _, err = c.FleetLeave(ctx, a1); err == nil {
		t.Fatal("removing the last backend was allowed")
	}
}

// TestGatewayOnPlainBackendFleet404: the fleet endpoints on a plain
// regiongrowd answer 404, which the SDK classifies as ErrNoFleet — the
// gateway and backend remain distinguishable.
func TestGatewayOnPlainBackendFleet404(t *testing.T) {
	a1, _ := newBackend(t, "b1", server.Options{})
	c, err := client.New("http://" + a1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Fleet(context.Background()); !errors.Is(err, client.ErrNoFleet) {
		t.Fatalf("Fleet against a backend: %v, want ErrNoFleet", err)
	}
	if _, err := c.FleetJoin(context.Background(), "127.0.0.1:1"); !errors.Is(err, client.ErrNoFleet) {
		t.Fatalf("FleetJoin against a backend: %v, want ErrNoFleet", err)
	}
	if _, err := c.FleetLeave(context.Background(), "127.0.0.1:1"); !errors.Is(err, client.ErrNoFleet) {
		t.Fatalf("FleetLeave against a backend: %v, want ErrNoFleet", err)
	}
}
