package nodeprog

// assignments tracks, over the whole merge stage, which representative
// each region ID ended up in: a union-find keyed by region ID. The host
// engines resolve their labels through the rag arena's contraction
// record instead; the node program records every merge event of the
// collective, and those name regions its tile graph never held.
type assignments struct {
	parent map[int32]int32
}

// newAssignments sizes the record for n squares: an image of n squares
// has at most n−1 merges, so the map never rehashes.
func newAssignments(n int) *assignments {
	return &assignments{parent: make(map[int32]int32, n)}
}

// record notes that region from merged into representative into.
func (a *assignments) record(from, into int32) { a.parent[from] = into }

// find returns the final representative of region id.
func (a *assignments) find(id int32) int32 {
	for {
		p, ok := a.parent[id]
		if !ok {
			return id
		}
		// Path compression: safe because record only ever adds roots.
		if gp, ok := a.parent[p]; ok {
			a.parent[id] = gp
		}
		id = p
	}
}
