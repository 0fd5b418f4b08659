package server

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"testing"

	"regiongrow/client"
	"regiongrow/internal/distengine/disttest"
)

// startWorkerCluster launches n in-process distengine workers, as
// cmd/regiongrow-worker would run them; see disttest.StartCluster.
func startWorkerCluster(t *testing.T, n int) []string {
	return disttest.StartCluster(t, n)
}

// TestServeDistEngine: a server started with cluster workers serves
// engine=dist with labels byte-identical to the sequential engine, and
// the dist engine shows up in /v1/stats after serving.
func TestServeDistEngine(t *testing.T) {
	addrs := startWorkerCluster(t, 3)
	svc, ts := newTestServer(t, Options{ClusterWorkers: addrs})

	seq := decodeSegment(t, postSegment(t, ts, "?image=image3&engine=sequential&labels=1", nil))
	dist := decodeSegment(t, postSegment(t, ts, "?image=image3&engine=dist&labels=1", nil))
	if dist.Engine != "dist" {
		t.Fatalf("engine %q, want dist", dist.Engine)
	}
	if len(dist.Result.Labels) == 0 || len(dist.Result.Labels) != len(seq.Result.Labels) {
		t.Fatalf("labels %d vs %d", len(dist.Result.Labels), len(seq.Result.Labels))
	}
	for i := range dist.Result.Labels {
		if dist.Result.Labels[i] != seq.Result.Labels[i] {
			t.Fatalf("label %d: dist %d != sequential %d", i, dist.Result.Labels[i], seq.Result.Labels[i])
		}
	}

	stats := svc.Stats()
	if _, ok := stats.Engines["dist"]; !ok {
		t.Fatalf("dist engine missing from stats: %v", stats.Engines)
	}
}

// TestServeDistWithoutCluster: without cluster workers, engine=dist is a
// 400 with a hint, not a 500 from a doomed job.
func TestServeDistWithoutCluster(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp := postSegment(t, ts, "?image=image1&engine=dist", nil)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	var body strings.Builder
	buf := make([]byte, 512)
	for {
		n, err := resp.Body.Read(buf)
		body.Write(buf[:n])
		if err != nil {
			break
		}
	}
	if !strings.Contains(body.String(), "-cluster") {
		t.Fatalf("error body %q lacks the -cluster hint", body.String())
	}
}

// TestClusterEndpoints drives the dynamic-membership API end to end
// through the typed SDK: status with per-worker health, join of a fresh
// worker (used by the very next dist job, no restart), idempotent
// re-join, leave, and the refusal to remove the last worker.
func TestClusterEndpoints(t *testing.T) {
	addrs := startWorkerCluster(t, 2)
	_, ts := newTestServer(t, Options{ClusterWorkers: addrs})
	c, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	st, err := c.Cluster(ctx)
	if err != nil {
		t.Fatalf("cluster status: %v", err)
	}
	if st.Engine != "dist" || st.Workers != 2 || len(st.Members) != 2 {
		t.Fatalf("status %+v, want 2 dist workers", st)
	}
	for _, m := range st.Members {
		if !m.Healthy {
			t.Errorf("worker %s probed unhealthy", m.Addr)
		}
	}

	// A third worker joins the running server; the next dist job must
	// spread across it without any restart, and stay byte-identical.
	extra := startWorkerCluster(t, 1)[0]
	upd, err := c.ClusterJoin(ctx, extra)
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	if !upd.Changed || len(upd.Members) != 3 {
		t.Fatalf("join answered %+v, want changed with 3 members", upd)
	}
	if upd, err = c.ClusterJoin(ctx, extra); err != nil || upd.Changed {
		t.Fatalf("duplicate join answered %+v, %v; want unchanged", upd, err)
	}
	seq := decodeSegment(t, postSegment(t, ts, "?image=image3&engine=sequential&labels=1", nil))
	dist := decodeSegment(t, postSegment(t, ts, "?image=image3&engine=dist&labels=1", nil))
	for i := range dist.Result.Labels {
		if dist.Result.Labels[i] != seq.Result.Labels[i] {
			t.Fatalf("label %d after join: dist %d != sequential %d", i, dist.Result.Labels[i], seq.Result.Labels[i])
		}
	}

	// Shrink back down; the departed worker disappears from status.
	if upd, err = c.ClusterLeave(ctx, extra); err != nil || !upd.Changed || len(upd.Members) != 2 {
		t.Fatalf("leave answered %+v, %v; want changed with 2 members", upd, err)
	}
	if upd, err = c.ClusterLeave(ctx, extra); err != nil || upd.Changed {
		t.Fatalf("repeated leave answered %+v, %v; want unchanged", upd, err)
	}

	// The last worker is not removable: a cluster never goes empty.
	if _, err = c.ClusterLeave(ctx, addrs[0]); err != nil {
		t.Fatalf("leave %s: %v", addrs[0], err)
	}
	if _, err = c.ClusterLeave(ctx, addrs[1]); err == nil {
		t.Fatal("removing the last worker succeeded, want a conflict")
	}

	// Parameter validation: a join with no addr is a 400.
	resp, err := http.Post(ts.URL+"/v1/cluster/join", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("join without addr: status %d, want 400", resp.StatusCode)
	}
}

// TestClusterUnhealthyMember: a member that stops answering probes shows
// up unhealthy in status, while the live one stays healthy.
func TestClusterUnhealthyMember(t *testing.T) {
	addrs := startWorkerCluster(t, 1)
	_, ts := newTestServer(t, Options{ClusterWorkers: addrs})
	c, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// A dead address: nothing ever listened there for this test's server.
	if _, err := c.ClusterJoin(ctx, "127.0.0.1:1"); err != nil {
		t.Fatalf("join: %v", err)
	}
	st, err := c.Cluster(ctx)
	if err != nil {
		t.Fatal(err)
	}
	byAddr := map[string]bool{}
	for _, m := range st.Members {
		byAddr[m.Addr] = m.Healthy
	}
	if !byAddr[addrs[0]] {
		t.Errorf("live worker %s probed unhealthy", addrs[0])
	}
	if byAddr["127.0.0.1:1"] {
		t.Error("dead address probed healthy")
	}
}

// TestClusterWithoutCluster: on a server with no -cluster, the endpoints
// are 404 and the SDK classifies that as ErrNoCluster.
func TestClusterWithoutCluster(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	c, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Cluster(context.Background()); !errors.Is(err, client.ErrNoCluster) {
		t.Fatalf("status on cluster-less server: %v, want ErrNoCluster", err)
	}
	if _, err := c.ClusterJoin(context.Background(), "127.0.0.1:1"); !errors.Is(err, client.ErrNoCluster) {
		t.Fatalf("join on cluster-less server: %v, want ErrNoCluster", err)
	}
	if _, err := c.ClusterLeave(context.Background(), "127.0.0.1:1"); !errors.Is(err, client.ErrNoCluster) {
		t.Fatalf("leave on cluster-less server: %v, want ErrNoCluster", err)
	}
}
