package prand

import (
	"testing"
	"testing/quick"
)

func TestGenDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("generators with equal seeds diverged at step %d", i)
		}
	}
}

func TestGenSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs of 100", same)
	}
}

func TestZeroValueUsable(t *testing.T) {
	var g Gen
	if g.Uint64() == g.Uint64() {
		t.Fatal("zero-value generator is not advancing")
	}
}

func TestIntnBounds(t *testing.T) {
	g := New(7)
	for _, n := range []int{1, 2, 3, 10, 1000} {
		for i := 0; i < 200; i++ {
			v := g.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnCoversRange(t *testing.T) {
	g := New(9)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		seen[g.Intn(4)] = true
	}
	for v := 0; v < 4; v++ {
		if !seen[v] {
			t.Errorf("Intn(4) never produced %d in 1000 draws", v)
		}
	}
}

func TestHashDeterministic(t *testing.T) {
	if Hash2(1, 2) != Hash2(1, 2) || Hash3(1, 2, 3) != Hash3(1, 2, 3) {
		t.Fatal("hash functions are not pure")
	}
}

func TestHashArgumentSensitivity(t *testing.T) {
	err := quick.Check(func(a, b uint64) bool {
		if a == b {
			return true
		}
		// Swapping or changing arguments must change the output: a
		// collision here would let two regions share tie-break draws.
		return Hash2(a, b) != Hash2(b, a) || a == b
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if Hash3(1, 2, 3) == Hash3(1, 3, 2) {
		t.Fatal("Hash3 is insensitive to argument order")
	}
}

func TestHashAvalanche(t *testing.T) {
	// Flipping one input bit should flip roughly half the output bits.
	base := Hash2(12345, 67890)
	flipped := Hash2(12345^1, 67890)
	diff := popcount(base ^ flipped)
	if diff < 16 || diff > 48 {
		t.Fatalf("weak avalanche: %d differing bits", diff)
	}
}

func popcount(x uint64) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

func TestSplitIndependence(t *testing.T) {
	g := New(5)
	c1 := g.Split(1)
	c2 := g.Split(2)
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("split children with distinct ids collided %d times", same)
	}
}

func TestUniformityRough(t *testing.T) {
	// Chi-squared-ish sanity over 16 buckets: no bucket should deviate
	// wildly from the mean.
	g := New(1234)
	const draws, buckets = 16000, 16
	var counts [buckets]int
	for i := 0; i < draws; i++ {
		counts[g.Uint64()%buckets]++
	}
	mean := draws / buckets
	for b, c := range counts {
		if c < mean/2 || c > mean*2 {
			t.Errorf("bucket %d has %d draws, mean %d", b, c, mean)
		}
	}
}

func TestMul64MatchesBigMultiplication(t *testing.T) {
	err := quick.Check(func(a, b uint64) bool {
		hi, lo := mul64(a, b)
		// Verify against the schoolbook decomposition.
		const mask = 1<<32 - 1
		al, ah := a&mask, a>>32
		bl, bh := b&mask, b>>32
		wantLo := a * b
		carry := (al*bl)>>32 + ah*bl&mask + al*bh&mask
		wantHi := ah*bh + (ah*bl)>>32 + (al*bh)>>32 + carry>>32
		return lo == wantLo && hi == wantHi
	}, &quick.Config{MaxCount: 2000})
	if err != nil {
		t.Fatal(err)
	}
}
