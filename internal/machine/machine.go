package machine

import "fmt"

// Profile holds the cost parameters of one machine configuration.
// All times are in seconds.
type Profile struct {
	// Name as it appears in the paper's tables.
	Name string

	// PE is the number of processing elements executing data-parallel
	// operations (physical processors on the CM-2; nodes on the CM-5).
	PE int

	// TElem is the time one PE spends producing one element of an
	// elementwise operation (includes the virtual-processor loop step).
	TElem float64
	// TSync is the fixed overhead of issuing one data-parallel operation
	// (instruction broadcast on the CM-2; the "housekeeping" — load
	// balance and synchronization — the paper blames for the CM-5's slow
	// CM Fortran times).
	TSync float64
	// TNews is the per-element per-hop cost of grid (NEWS) communication.
	TNews float64
	// TRouter is the per-element cost of general router communication.
	TRouter float64
	// RouterLatency is the fixed cost of one router operation.
	RouterLatency float64
	// TScan is the per-combining-step cost of scan/reduce trees.
	TScan float64

	// Message passing parameters (CM-5 CMMD).
	// Alpha is the per-message setup time; the paper's LP scheme pays it
	// once per ring step whether or not a message flows.
	Alpha float64
	// Beta is the per-32-bit-word transfer time.
	Beta float64
	// TBarrier is the cost of a global synchronization or control-network
	// collective (the CM-5's control network did reductions and
	// broadcasts in hardware, far cheaper than data-network messages).
	TBarrier float64
	// TNode is the time of one scalar operation in a node program.
	TNode float64
	// TSplitLevel is the fixed per-node overhead of one split pass
	// (loop setup and bounds bookkeeping in the F77 node code).
	TSplitLevel float64
	// TMergeIterFixed and TMergeIterPixel model the residual
	// per-merge-iteration cost of the F77 node program: the paper's
	// per-iteration merge times are nearly independent of region count
	// but grow with sub-image size, indicating the node code re-walks
	// its pixel-level buffers each iteration. Charge per iteration:
	// TMergeIterFixed + TMergeIterPixel·(tile pixels).
	TMergeIterFixed float64
	TMergeIterPixel float64
}

// String implements fmt.Stringer.
func (p *Profile) String() string { return p.Name }

// ElemOp returns the cost of one elementwise data-parallel operation over
// n virtual elements.
func (p *Profile) ElemOp(n int) float64 {
	return float64(ceilDiv(n, p.PE))*p.TElem + p.TSync
}

// NewsOp returns the cost of one grid shift of n elements over dist hops.
func (p *Profile) NewsOp(n, dist int) float64 {
	if dist < 0 {
		dist = -dist
	}
	if dist == 0 {
		return p.TSync
	}
	return float64(ceilDiv(n, p.PE))*p.TNews*float64(dist) + p.TSync
}

// RouterOp returns the cost of one general-communication operation moving
// n elements.
func (p *Profile) RouterOp(n int) float64 {
	return float64(ceilDiv(n, p.PE))*p.TRouter + p.RouterLatency
}

// ScanOp returns the cost of a scan or reduction over n elements.
func (p *Profile) ScanOp(n int) float64 {
	return float64(ceilDiv(n, p.PE))*p.TElem + float64(log2ceil(p.PE))*p.TScan + p.TSync
}

// SortOp returns the cost of sorting n elements (bitonic-style:
// O(log² n) data-parallel compare-exchange rounds with router traffic).
func (p *Profile) SortOp(n int) float64 {
	if n <= 1 {
		return p.TSync
	}
	rounds := log2ceil(n)
	rounds = rounds * (rounds + 1) / 2
	return float64(rounds) * (float64(ceilDiv(n, p.PE))*(p.TElem+p.TRouter) + p.TSync)
}

// MsgCost returns the cost of transmitting one message of `words` 32-bit
// words between two nodes.
func (p *Profile) MsgCost(words int) float64 {
	return p.Alpha + p.Beta*float64(words)
}

func ceilDiv(a, b int) int {
	if b <= 0 {
		panic(fmt.Sprintf("machine: ceilDiv by %d", b))
	}
	return (a + b - 1) / b
}

func log2ceil(v int) int {
	n := 0
	for (1 << n) < v {
		n++
	}
	return n
}
