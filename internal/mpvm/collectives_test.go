package mpvm

import (
	"fmt"
	"testing"

	"regiongrow/internal/prand"
)

// TestMixedCollectiveStress interleaves every collective kind under random
// per-node compute skew — the failure-injection test for the barrier and
// episode machinery (a lost wakeup or stale buffer shows up as a wrong
// value or a deadlock here).
func TestMixedCollectiveStress(t *testing.T) {
	_, _, err := Run(8, prof(), func(n *Node) error {
		g := prand.New(uint64(n.Rank) + 99)
		for round := 0; round < 50; round++ {
			n.Charge(g.Intn(5000)) // skew simulated clocks
			switch round % 3 {
			case 0:
				if got := n.AllReduceSum(1); got != 8 {
					return fmt.Errorf("round %d: sum %d", round, got)
				}
			case 1:
				out := n.AllGather([]int32{int32(n.Rank + round)})
				for r := 0; r < 8; r++ {
					if out[r][0] != int32(r+round) {
						return fmt.Errorf("round %d: gather %v", round, out)
					}
				}
			case 2:
				if got := n.AllReduceMax(n.Rank * round); got != 7*round {
					return fmt.Errorf("round %d: max %d", round, got)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestExchangeUnderSkew injects adversarial clock skew and uneven traffic
// into both exchange schemes and checks the payload relation survives.
func TestExchangeUnderSkew(t *testing.T) {
	for _, scheme := range []Scheme{LP, Async} {
		_, _, err := Run(6, prof(), func(n *Node) error {
			g := prand.New(uint64(n.Rank)*7 + 1)
			for round := 0; round < 20; round++ {
				n.Charge(g.Intn(20000))
				out := make(map[int][]int32)
				// Node k sends to its successors a tagged payload.
				for d := 0; d < 6; d++ {
					if (n.Rank+d+round)%3 == 0 {
						out[d] = []int32{int32(n.Rank), int32(d), int32(round)}
					}
				}
				got := n.Exchange(out, scheme, 10000+round*100)
				for s, data := range got {
					if (s+n.Rank+round)%3 != 0 {
						return fmt.Errorf("unexpected sender %d in round %d", s, round)
					}
					if len(data) != 3 || data[0] != int32(s) || data[1] != int32(n.Rank) || data[2] != int32(round) {
						return fmt.Errorf("round %d: bad payload %v from %d", round, data, s)
					}
				}
				// Count expected senders.
				want := 0
				for s := 0; s < 6; s++ {
					if (s+n.Rank+round)%3 == 0 {
						want++
					}
				}
				if len(got) != want {
					return fmt.Errorf("round %d: got %d senders, want %d", round, len(got), want)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
	}
}
