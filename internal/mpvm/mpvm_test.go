package mpvm

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"regiongrow/internal/machine"
	"regiongrow/internal/prand"
)

func prof() *machine.Profile { return machine.Get(machine.CM5_LP) }

func TestSendRecv(t *testing.T) {
	_, stats, err := Run(2, prof(), func(n *Node) error {
		if n.Rank == 0 {
			n.Send(1, 7, []int32{1, 2, 3})
		} else {
			m := n.Recv(0, 7)
			if len(m.Data) != 3 || m.Data[2] != 3 || m.Src != 0 {
				return fmt.Errorf("bad message: %+v", m)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Messages != 1 || stats.Words != 3 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestRecvByTagOutOfOrder(t *testing.T) {
	_, _, err := Run(2, prof(), func(n *Node) error {
		if n.Rank == 0 {
			n.Send(1, 1, []int32{10})
			n.Send(1, 2, []int32{20})
		} else {
			// Receive tag 2 first even though tag 1 arrives first.
			m2 := n.Recv(0, 2)
			m1 := n.Recv(0, 1)
			if m2.Data[0] != 20 || m1.Data[0] != 10 {
				return fmt.Errorf("tag matching broken: %v %v", m1.Data, m2.Data)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvAnySource(t *testing.T) {
	_, _, err := Run(4, prof(), func(n *Node) error {
		if n.Rank != 0 {
			n.Send(0, 5, []int32{int32(n.Rank)})
			return nil
		}
		got := map[int32]bool{}
		for i := 0; i < 3; i++ {
			m := n.Recv(-1, 5)
			got[m.Data[0]] = true
		}
		if len(got) != 3 {
			return fmt.Errorf("received %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierSynchronisesClocks(t *testing.T) {
	clocks, stats, err := Run(4, prof(), func(n *Node) error {
		n.Charge(n.Rank * 1000000) // rank 3 is far ahead
		n.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, c := range clocks {
		if c != clocks[0] {
			t.Fatalf("clock %d = %v, clock 0 = %v", r, c, clocks[0])
		}
	}
	if stats.Barriers != 1 {
		t.Fatalf("barriers = %d", stats.Barriers)
	}
	// The barrier resolves to the slowest participant plus barrier cost.
	want := float64(3*1000000)*prof().TNode + prof().TBarrier
	if clocks[0] < want*0.999 || clocks[0] > want*1.001 {
		t.Fatalf("clock = %v, want ≈ %v", clocks[0], want)
	}
}

func TestRepeatedBarriers(t *testing.T) {
	_, stats, err := Run(3, prof(), func(n *Node) error {
		for i := 0; i < 10; i++ {
			n.Barrier()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Barriers != 10 {
		t.Fatalf("barriers = %d", stats.Barriers)
	}
}

func TestMessageDelaysReceiverClock(t *testing.T) {
	clocks, _, err := Run(2, prof(), func(n *Node) error {
		if n.Rank == 0 {
			n.Charge(10000000) // sender is slow
			n.Send(1, 1, []int32{1})
		} else {
			n.Recv(0, 1) // receiver must wait on simulated time too
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if clocks[1] < clocks[0] {
		t.Fatalf("receiver clock %v below sender clock %v", clocks[1], clocks[0])
	}
}

func TestAllGather(t *testing.T) {
	_, _, err := Run(4, prof(), func(n *Node) error {
		out := n.AllGather([]int32{int32(n.Rank * 10)})
		if len(out) != 4 {
			return fmt.Errorf("len %d", len(out))
		}
		for r := 0; r < 4; r++ {
			if len(out[r]) != 1 || out[r][0] != int32(r*10) {
				return fmt.Errorf("rank %d: out[%d] = %v", n.Rank, r, out[r])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllGatherRepeatedEpisodes(t *testing.T) {
	// Buffers must reset between episodes.
	_, _, err := Run(3, prof(), func(n *Node) error {
		for i := 0; i < 5; i++ {
			out := n.AllGather([]int32{int32(n.Rank + i*100)})
			for r := 0; r < 3; r++ {
				if out[r][0] != int32(r+i*100) {
					return fmt.Errorf("episode %d rank %d saw %v", i, n.Rank, out[r])
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllReduce(t *testing.T) {
	_, _, err := Run(4, prof(), func(n *Node) error {
		if got := n.AllReduceMax(n.Rank * 2); got != 6 {
			return fmt.Errorf("max = %d", got)
		}
		if got := n.AllReduceSum(n.Rank); got != 6 {
			return fmt.Errorf("sum = %d", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// runExchange drives one Exchange with a deterministic traffic pattern and
// checks everyone received exactly what was addressed to them.
func runExchange(t *testing.T, q int, scheme Scheme, seed uint64) {
	t.Helper()
	_, stats, err := Run(q, prof(), func(n *Node) error {
		g := prand.New(seed + uint64(n.Rank))
		out := make(map[int][]int32)
		for d := 0; d < q; d++ {
			k := g.Intn(4) // 0..3 words; 0 = no message
			if k == 0 {
				continue
			}
			data := make([]int32, k)
			for i := range data {
				data[i] = int32(n.Rank*1000 + d*10 + i)
			}
			out[d] = data
		}
		got := n.Exchange(out, scheme, 500)
		// Recompute what every peer sent me.
		for s := 0; s < q; s++ {
			gs := prand.New(seed + uint64(s))
			var want []int32
			for d := 0; d < q; d++ {
				k := gs.Intn(4)
				if d == n.Rank && k > 0 {
					want = make([]int32, k)
					for i := range want {
						want[i] = int32(s*1000 + d*10 + i)
					}
				}
			}
			data := got[s]
			if len(data) != len(want) {
				return fmt.Errorf("rank %d from %d: got %v want %v", n.Rank, s, data, want)
			}
			for i := range want {
				if data[i] != want[i] {
					return fmt.Errorf("rank %d from %d: got %v want %v", n.Rank, s, data, want)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Exchanges != int64(q) {
		t.Fatalf("exchanges = %d", stats.Exchanges)
	}
	if scheme == LP && stats.LPSteps != int64(q*(q-1)) {
		t.Fatalf("LP steps = %d, want %d", stats.LPSteps, q*(q-1))
	}
}

func TestExchangeLP(t *testing.T) {
	for _, q := range []int{2, 4, 8} {
		runExchange(t, q, LP, 11)
	}
}

func TestExchangeAsync(t *testing.T) {
	for _, q := range []int{2, 4, 8} {
		runExchange(t, q, Async, 11)
	}
}

func TestExchangeSchemesEquivalent(t *testing.T) {
	// Property: both schemes deliver the identical payload relation.
	err := quick.Check(func(seed uint64) bool {
		collect := func(scheme Scheme) []string {
			results := make([][]string, 4)
			Run(4, prof(), func(n *Node) error {
				g := prand.New(seed + uint64(n.Rank))
				out := make(map[int][]int32)
				for d := 0; d < 4; d++ {
					if g.Intn(2) == 1 {
						out[d] = []int32{int32(n.Rank), int32(d), int32(g.Intn(100))}
					}
				}
				got := n.Exchange(out, scheme, 300)
				var lines []string
				for s, data := range got {
					lines = append(lines, fmt.Sprintf("%d<-%d:%v", n.Rank, s, data))
				}
				sort.Strings(lines)
				results[n.Rank] = lines
				return nil
			})
			var all []string
			for _, r := range results {
				all = append(all, r...)
			}
			sort.Strings(all)
			return all
		}
		a := collect(LP)
		b := collect(Async)
		return strings.Join(a, ";") == strings.Join(b, ";")
	}, &quick.Config{MaxCount: 20})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLPCostsMoreThanAsync(t *testing.T) {
	// Same sparse traffic under both schemes: LP's Q−1 mandatory ring
	// steps must cost more simulated time.
	run := func(scheme Scheme) float64 {
		clocks, _, err := Run(8, prof(), func(n *Node) error {
			out := map[int][]int32{}
			if n.Rank == 0 {
				out[1] = []int32{42}
			}
			n.Exchange(out, scheme, 100)
			n.Barrier()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return clocks[0]
	}
	lp, async := run(LP), run(Async)
	if lp <= async {
		t.Fatalf("LP %.6f should exceed Async %.6f for sparse traffic", lp, async)
	}
}

func TestNodePanicPropagates(t *testing.T) {
	_, _, err := Run(3, prof(), func(n *Node) error {
		if n.Rank == 1 {
			panic("boom")
		}
		// Peers block; the shutdown must wake them with an error rather
		// than deadlock.
		n.Barrier()
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "boom") && !strings.Contains(err.Error(), "shut down") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunRejectsBadNodeCount(t *testing.T) {
	if _, _, err := Run(0, prof(), func(n *Node) error { return nil }); err == nil {
		t.Fatal("Run(0) succeeded")
	}
}

func TestSendToInvalidRankPanics(t *testing.T) {
	_, _, err := Run(1, prof(), func(n *Node) error {
		n.Send(5, 1, nil)
		return nil
	})
	if err == nil {
		t.Fatal("send to invalid rank not reported")
	}
}

func TestClockMonotonicity(t *testing.T) {
	_, _, err := Run(4, prof(), func(n *Node) error {
		last := n.Clock()
		step := func(what string) error {
			if n.Clock() < last {
				return fmt.Errorf("%s moved clock backwards", what)
			}
			last = n.Clock()
			return nil
		}
		n.Charge(10)
		if err := step("charge"); err != nil {
			return err
		}
		n.Barrier()
		if err := step("barrier"); err != nil {
			return err
		}
		n.AllGather([]int32{1})
		if err := step("gather"); err != nil {
			return err
		}
		n.AllReduceMax(n.Rank)
		return step("reduce")
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSchemeString(t *testing.T) {
	if LP.String() != "LP" || Async.String() != "Async" {
		t.Fatal("scheme names wrong")
	}
}
