package nodeprog

// assignments tracks, over the whole merge stage, which representative
// each region ID ended up in: a union-find keyed by region ID. The host
// engines resolve their labels through the rag arena's contraction
// record instead; the node program records every merge event of the
// collective, and those name regions its tile graph never held.
type assignments struct {
	parent map[int32]int32
}

func newAssignments() *assignments { return &assignments{parent: make(map[int32]int32)} }

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

// relabel maps tile labels through the assignments, producing the final
// per-pixel labels. Split labels arrive in long horizontal runs, so a
// last-label fast path keeps most pixels off the cache map entirely.
func (a *assignments) relabel(labels []int32) []int32 {
	out := make([]int32, len(labels))
	cache := make(map[int32]int32)
	lastLab, lastRoot := int32(-1), int32(-1) // labels are pixel indices, never negative
	for i, lab := range labels {
		if lab == lastLab {
			out[i] = lastRoot
			continue
		}
		r, ok := cache[lab]
		if !ok {
			r = a.find(lab)
			cache[lab] = r
		}
		out[i] = r
		lastLab, lastRoot = lab, r
	}
	return out
}
