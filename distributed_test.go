package regiongrow

import (
	"context"
	"strings"
	"testing"

	"regiongrow/internal/distengine/disttest"
)

// startWorkerCluster launches n in-process distengine workers, as
// cmd/regiongrow-worker would run them; see disttest.StartCluster.
func startWorkerCluster(t testing.TB, n int) []string {
	return disttest.StartCluster(t, n)
}

// TestDistributedSegmenter: the Distributed kind runs through the same
// Segmenter session path as every other engine and produces labels
// byte-identical to the sequential engine across tie policies.
func TestDistributedSegmenter(t *testing.T) {
	addrs := startWorkerCluster(t, 4)
	sess, err := New(Distributed, WithClusterWorkers(addrs))
	if err != nil {
		t.Fatal(err)
	}
	if sess.Kind() != Distributed {
		t.Errorf("Kind() = %v, want Distributed", sess.Kind())
	}
	if !strings.HasPrefix(sess.Engine().Name(), "distributed/") {
		t.Errorf("Engine().Name() = %q", sess.Engine().Name())
	}
	im := GeneratePaperImage(Image2Rects128)
	for _, tie := range []TiePolicy{SmallestIDTie, LargestIDTie, RandomTie} {
		cfg := Config{Threshold: 10, Tie: tie, Seed: 3}
		want, err := segmentKind(SequentialEngine, im, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sess.Segment(context.Background(), im, cfg)
		if err != nil {
			t.Fatalf("tie %v: %v", tie, err)
		}
		if !got.EqualLabels(want) {
			t.Errorf("tie %v: distributed labels differ from sequential", tie)
		}
		if err := Validate(got, im, cfg); err != nil {
			t.Errorf("tie %v: %v", tie, err)
		}
		if got.Comm == nil || got.Comm.Messages == 0 {
			t.Errorf("tie %v: no communication counters: %+v", tie, got.Comm)
		}
	}
}

// TestDistributedConstruction: the Distributed kind demands cluster
// addresses, and the cluster option rejects other kinds.
func TestDistributedConstruction(t *testing.T) {
	if _, err := New(Distributed); err == nil || !strings.Contains(err.Error(), "WithClusterWorkers") {
		t.Errorf("New(Distributed) = %v, want a WithClusterWorkers hint", err)
	}
	if _, err := New(Distributed, WithClusterWorkers(nil)); err == nil {
		t.Error("New(Distributed, WithClusterWorkers(nil)) succeeded")
	}
	if _, err := New(SequentialEngine, WithClusterWorkers([]string{"x:1"})); err == nil ||
		!strings.Contains(err.Error(), "Distributed") {
		t.Errorf("WithClusterWorkers on sequential = %v, want a kind error", err)
	}
}

// TestClusterMembership: the Segmenter's membership surface — list,
// join, leave, health — mutates a live Distributed session (next job
// picks up the change), guards the last worker, and rejects every other
// engine kind.
func TestClusterMembership(t *testing.T) {
	addrs := startWorkerCluster(t, 2)
	sess, err := New(Distributed, WithClusterWorkers(addrs))
	if err != nil {
		t.Fatal(err)
	}
	members, err := sess.ClusterMembers()
	if err != nil || len(members) != 2 {
		t.Fatalf("ClusterMembers = %v, %v; want the 2 seeds", members, err)
	}

	extra := startWorkerCluster(t, 1)[0]
	if changed, err := sess.ClusterJoin(extra); err != nil || !changed {
		t.Fatalf("ClusterJoin(%s) = %v, %v; want changed", extra, changed, err)
	}
	if changed, err := sess.ClusterJoin(extra); err != nil || changed {
		t.Fatalf("duplicate ClusterJoin = %v, %v; want unchanged", changed, err)
	}
	if _, err := sess.ClusterJoin(""); err == nil {
		t.Error("ClusterJoin(\"\") succeeded")
	}

	// The joined worker serves the next job of the live session.
	im := GeneratePaperImage(Image3Circles128)
	cfg := Config{Threshold: 10, Tie: SmallestIDTie}
	want, err := segmentKind(SequentialEngine, im, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sess.Segment(context.Background(), im, cfg)
	if err != nil {
		t.Fatalf("post-join segment: %v", err)
	}
	if !got.EqualLabels(want) {
		t.Error("post-join labels differ from sequential")
	}

	health, err := sess.ClusterHealth(context.Background())
	if err != nil || len(health) != 3 {
		t.Fatalf("ClusterHealth = %v, %v; want 3 probes", health, err)
	}
	for _, h := range health {
		if !h.Healthy {
			t.Errorf("worker %s probed unhealthy", h.Addr)
		}
	}

	if changed, err := sess.ClusterLeave(extra); err != nil || !changed {
		t.Fatalf("ClusterLeave(%s) = %v, %v; want changed", extra, changed, err)
	}
	if changed, err := sess.ClusterLeave("never-was:1"); err != nil || changed {
		t.Fatalf("ClusterLeave of a non-member = %v, %v; want unchanged", changed, err)
	}
	if changed, err := sess.ClusterLeave(addrs[0]); err != nil || !changed {
		t.Fatalf("ClusterLeave(%s) = %v, %v; want changed", addrs[0], changed, err)
	}
	if _, err := sess.ClusterLeave(addrs[1]); err == nil {
		t.Error("removing the last worker succeeded")
	}

	// Every other engine kind refuses the membership surface.
	seq, err := New(SequentialEngine)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seq.ClusterMembers(); err == nil {
		t.Error("ClusterMembers on sequential succeeded")
	}
	if _, err := seq.ClusterHealth(context.Background()); err == nil {
		t.Error("ClusterHealth on sequential succeeded")
	}
}

// TestClusterRow: the harness's distributed table row validates and
// reports wall times under the HostCluster config.
func TestClusterRow(t *testing.T) {
	addrs := startWorkerCluster(t, 2)
	row, err := ClusterRow(context.Background(), addrs, Image1NestedRects128, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if row.Config.Short() != "dist" {
		t.Errorf("row config %v (%s), want HostCluster/dist", row.Config, row.Config.Short())
	}
	if row.MergeIters == 0 || row.WallSplit <= 0 {
		t.Errorf("row not filled: %+v", row)
	}
}
