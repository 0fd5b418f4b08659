package quadsplit

import (
	"context"
	"errors"
	"testing"

	"regiongrow/internal/pixmap"
)

// countdownCtx reports no error for its first n Err calls and
// context.Canceled from then on, so a test can cancel at an exact check
// without racing a goroutine.
type countdownCtx struct {
	context.Context
	n int
}

func (c *countdownCtx) Err() error {
	if c.n <= 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

func cancelled() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

func TestSplitCancelled(t *testing.T) {
	res, err := Split(cancelled(), pixmap.Uniform(64, 9), 10, Options{})
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("Split on a cancelled ctx = %v, %v; want nil, context.Canceled", res, err)
	}
}

// TestSplitChecksEveryLevel: a context that becomes done once level 1 is
// built stops the combining loop at the next level boundary, however many
// levels the image has left, on one band or on several. The countdown is
// not safe for concurrent use, so it also pins that only the calling
// goroutine reads ctx.
func TestSplitChecksEveryLevel(t *testing.T) {
	im := pixmap.Uniform(64, 9)
	full := split(im, 10, Options{})
	if full.Iterations < 3 {
		t.Fatalf("uniform 64×64 split ran %d levels; the test needs several", full.Iterations)
	}
	for _, workers := range []int{1, 4} {
		// Two checks pass: the entry check and level 1's.
		res, err := Split(&countdownCtx{Context: context.Background(), n: 2}, im, 10, Options{Workers: workers})
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Fatalf("workers=%d: Split cancelled after level 1 = %v, %v; want nil, context.Canceled", workers, res, err)
		}
	}
}

func TestSplitParallelCancelled(t *testing.T) {
	for _, workers := range []int{1, 4} {
		res, err := Split(cancelled(), pixmap.Random(96, 5), 10, Options{MaxSquare: 16, Workers: workers})
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Fatalf("workers=%d: Split on a cancelled ctx = %v, %v; want nil, context.Canceled", workers, res, err)
		}
	}
}
