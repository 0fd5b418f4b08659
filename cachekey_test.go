package regiongrow

import (
	"encoding/json"
	"math/rand"
	"testing"

	"regiongrow/internal/quadsplit"
)

// TestCacheKeyProperties is a property test over CacheKeyForHash:
// canonically-equal configurations must collide (the seed is irrelevant
// under deterministic ties; MaxSquare 0 and its resolved effective cap
// are the same split), and differing engine kinds must never collide.
func TestCacheKeyProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	kinds := AllEngineKinds()
	dims := []int{16, 32, 64, 128, 177, 256} // incl. a non-power-of-two
	for trial := 0; trial < 500; trial++ {
		w := dims[rng.Intn(len(dims))]
		h := dims[rng.Intn(len(dims))]
		hash := "h" // the image-content hash is an opaque prefix here
		cfg := Config{
			Threshold: rng.Intn(64),
			Tie:       []TiePolicy{SmallestIDTie, LargestIDTie, RandomTie}[rng.Intn(3)],
			Seed:      rng.Uint64(),
			MaxSquare: rng.Intn(3) - 1, // -1, 0, or 1… widened below
		}
		if cfg.MaxSquare == 1 {
			cfg.MaxSquare = 1 << (2 + rng.Intn(6)) // a positive power-of-two cap
		}
		kind := kinds[rng.Intn(len(kinds))]
		key := CacheKeyForHash(hash, w, h, cfg, kind)

		// Seed must be irrelevant exactly when ties are deterministic.
		reseeded := cfg
		reseeded.Seed = rng.Uint64()
		rkey := CacheKeyForHash(hash, w, h, reseeded, kind)
		if cfg.Tie != RandomTie && rkey != key {
			t.Fatalf("deterministic-tie keys diverge on seed: %q vs %q", key, rkey)
		}
		if cfg.Tie == RandomTie && reseeded.Seed != cfg.Seed && rkey == key {
			t.Fatalf("random-tie keys collide across seeds %d and %d: %q", cfg.Seed, reseeded.Seed, key)
		}

		// MaxSquare 0 and the effective cap it resolves to are the same
		// split and must share a key.
		if cfg.MaxSquare == 0 {
			resolved := cfg
			resolved.MaxSquare = quadsplit.EffectiveCap(quadsplit.Options{}, w, h)
			if CacheKeyForHash(hash, w, h, resolved, kind) != key {
				t.Fatalf("MaxSquare 0 and effective cap %d key apart on %dx%d", resolved.MaxSquare, w, h)
			}
		}

		// Engine kinds are cached separately (their reported timings
		// differ): same everything, different kind, different key.
		for _, other := range kinds {
			if other == kind {
				continue
			}
			if CacheKeyForHash(hash, w, h, cfg, other) == key {
				t.Fatalf("kinds %v and %v collide on key %q", kind, other, key)
			}
		}
	}
}

// TestEngineKindTextRoundTrip: MarshalText/UnmarshalText delegate to
// String/ParseEngineKind, so engine kinds survive JSON round trips by
// name and unknown values refuse to marshal.
func TestEngineKindTextRoundTrip(t *testing.T) {
	for _, k := range AllEngineKinds() {
		data, err := json.Marshal(k)
		if err != nil {
			t.Fatal(err)
		}
		if want := `"` + k.String() + `"`; string(data) != want {
			t.Fatalf("marshal %v = %s, want %s", k, data, want)
		}
		var back EngineKind
		if err := json.Unmarshal(data, &back); err != nil || back != k {
			t.Fatalf("round trip %v: %v, %v", k, back, err)
		}
	}
	if _, err := json.Marshal(EngineKind(99)); err == nil {
		t.Fatal("unknown engine kind marshalled")
	}
	var k EngineKind
	if err := json.Unmarshal([]byte(`"warp-drive"`), &k); err == nil {
		t.Fatal("unknown engine name unmarshalled")
	}
}

// TestTiePolicyTextRoundTrip: likewise for tie policies, including the
// case-insensitivity ParseTiePolicy promises.
func TestTiePolicyTextRoundTrip(t *testing.T) {
	for _, p := range []TiePolicy{SmallestIDTie, LargestIDTie, RandomTie} {
		data, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		if want := `"` + p.String() + `"`; string(data) != want {
			t.Fatalf("marshal %v = %s, want %s", p, data, want)
		}
		var back TiePolicy
		if err := json.Unmarshal(data, &back); err != nil || back != p {
			t.Fatalf("round trip %v: %v, %v", p, back, err)
		}
	}
	var p TiePolicy
	if err := p.UnmarshalText([]byte("RANDOM")); err != nil || p != RandomTie {
		t.Fatalf("case-insensitive unmarshal: %v, %v", p, err)
	}
	if _, err := json.Marshal(TiePolicy(9)); err == nil {
		t.Fatal("unknown tie policy marshalled")
	}
}

// TestEventKindTextRoundTrip: stage event kinds travel by name on the
// wire.
func TestEventKindTextRoundTrip(t *testing.T) {
	for _, k := range []EventKind{EventSplitStart, EventSplitDone, EventGraphDone,
		EventMergeIteration, EventMergeDone} {
		data, err := json.Marshal(k)
		if err != nil {
			t.Fatal(err)
		}
		var back EventKind
		if err := json.Unmarshal(data, &back); err != nil || back != k {
			t.Fatalf("round trip %v: %v, %v", k, back, err)
		}
	}
	if _, err := json.Marshal(EventKind(42)); err == nil {
		t.Fatal("unknown event kind marshalled")
	}
}
