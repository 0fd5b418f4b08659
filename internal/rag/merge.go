package rag

import (
	"math/bits"

	"regiongrow/internal/prand"
)

// merger is MergeAll's state across rounds. A slot's scan reads only its
// adjacency list and the intervals of itself and its neighbours, so its
// choice persists from round to round and is recomputed only after a
// contraction changed one of those inputs.
type merger struct {
	g      *Graph
	policy TiePolicy // MergeAll's policy, not a round's effective one
	seed   uint64
	// effective and round are the current round's effective policy and
	// prand.Hash2(seed, iter), which the picks read.
	effective TiePolicy
	round     uint64
	// choice holds each slot's current choice: a neighbour slot; noSlot
	// when the slot has no active edge or is dead; or, when its best
	// weight is a real tie under Random, tieTag(o) for its tie record at
	// ties[o], from which chosen draws the round's pick.
	choice []int32
	// ties holds the tie records, each [slot, k, then the k tied slots
	// in ascending region-ID order]. Retiring a record overwrites its
	// slot with noSlot; such stale records, stale words in total, are
	// dropped when a record does not fit and a quarter of the buffer is
	// stale.
	ties    []int32
	stale   int
	dirty   bitset  // slots to rescan before the next round
	fresh   bitset  // slots whose choice was set this round
	tied    bitset  // slots with a tie record
	nActive int     // live slots with a choice: those with an active edge
	scratch []int32 // scan's tie list

	// onRound is MergeAll's per-round callback, or nil.
	onRound func(iter, merged int)
}

// tieTag encodes tie-record offset o as a choice value below noSlot;
// tieOffset decodes it. tieLen and tieList read the record rec starts
// with.
func tieTag(o int) int32          { return int32(-2 - o) }
func tieOffset(c int32) int       { return int(-2 - c) }
func tieLen(rec []int32) int      { return 2 + int(rec[1]) }
func tieList(rec []int32) []int32 { return rec[2:tieLen(rec)] }

// newMerger marks every live slot for its first scan.
func newMerger(g *Graph, policy TiePolicy, seed uint64) *merger {
	n := len(g.ids)
	m := &merger{g: g, policy: policy, seed: seed, choice: make([]int32, n),
		dirty: newBitset(n), fresh: newBitset(n), tied: newBitset(n)}
	for s := range m.choice {
		m.choice[s] = noSlot
		if g.alive[s] {
			m.dirty.set(int32(s))
		}
	}
	return m
}

// rescan is MergeAll's activity test. It brings every dirty slot's scan up
// to date, adds the slots that have a choice to the round's fresh set,
// and reports whether any live slot has an active edge. A slot has a
// choice exactly when it has an active edge, so the count of live slots
// with a choice answers without a pass over the graph.
func (m *merger) rescan() bool {
	g := m.g
	for s := range m.dirty.all {
		if !g.alive[s] {
			continue // contracted away after it was marked
		}
		had := m.choice[s] != noSlot
		m.retire(s)
		var sole int32
		sole, m.scratch = g.scan(s, m.scratch)
		switch {
		case sole != noSlot:
			m.choice[s] = sole
		case len(m.scratch) > 0 && m.policy == Random:
			m.choice[s] = m.addTie(s, m.scratch)
		case len(m.scratch) > 0:
			// SmallestID and LargestID are never forced to switch and
			// their draw ignores the round, so the pick holds while s
			// stays clean and the tie list need not be kept.
			m.choice[s] = pickTied(m.scratch, m.policy, 0, g.ids[s])
		}
		has := m.choice[s] != noSlot
		if has {
			m.fresh.set(s)
		}
		switch {
		case has && !had:
			m.nActive++
		case had && !has:
			m.nActive--
		}
	}
	clear(m.dirty)
	return m.nActive > 0
}

// chosen returns slot s's chosen neighbour, or noSlot. A tied slot draws
// its pick from its cached tie list under the round's effective policy.
func (m *merger) chosen(s int32) int32 {
	c := m.choice[s]
	if c < noSlot {
		return pickTied(tieList(m.ties[tieOffset(c):]), m.effective, m.round, m.g.ids[s])
	}
	return c
}

// pairs merges round iter under the effective policy: it contracts every
// mutual pair into its smaller-ID endpoint and returns how many it
// merged. The search starts only from the fresh slots and, since a
// Random draw changes every round and a forced SmallestID round switches
// the policy, from every tied slot. Two other slots chose each other
// last round too, and a mutual pair always merges in its round. Mutual
// pairs are disjoint and contraction is a set operation, so the order of
// contraction does not change the resulting graph.
func (m *merger) pairs(effective TiePolicy, iter int) int {
	m.effective, m.round = effective, prand.Hash2(m.seed, uint64(iter))
	for i, w := range m.tied {
		m.fresh[i] |= w
	}
	ids := m.g.ids
	merged := 0
	for s := range m.fresh.all {
		c := m.chosen(s)
		if c == noSlot || m.chosen(c) != s {
			continue // a contracted slot has no choice, so each pair merges once
		}
		k, l := s, c
		if ids[l] < ids[k] {
			k, l = l, k
		}
		m.contract(k, l)
		merged++
	}
	clear(m.fresh)
	return merged
}

// contract merges slot l into slot k and marks for rescan every slot
// whose scan inputs that changed: k, whose adjacency took l's; every
// neighbour of l, whose list swapped l for k; and, only when k's interval
// widened, every neighbour of k, which reads it. No other slot's
// adjacency list or neighbour intervals change, so no other scan can.
func (m *merger) contract(k, l int32) {
	g := m.g
	for _, n := range g.adj[l] {
		m.dirty.set(n) // k among them
	}
	lo, hi := g.lo[k], g.hi[k]
	g.contractSlots(k, l)
	if g.lo[k] != lo || g.hi[k] != hi {
		for _, n := range g.adj[k] {
			m.dirty.set(n)
		}
	}
	m.retire(l)
	m.nActive-- // l had a choice: k
}

// retire clears slot s's choice and marks its tie record, if any,
// stale.
func (m *merger) retire(s int32) {
	if c := m.choice[s]; c < noSlot {
		rec := m.ties[tieOffset(c):]
		rec[0] = noSlot
		m.stale += tieLen(rec)
		m.tied.unset(s)
	}
	m.choice[s] = noSlot
}

// addTie appends slot s's tie record and returns the tag its choice
// carries. When the record does not fit and at least a quarter of the
// buffer is stale, the stale records are dropped first, so compaction
// costs amortised O(1) per word appended. Otherwise the buffer doubles,
// starting at one word per slot: a Random run's first round then
// allocates a few buffers instead of the dozen append's gentler growth
// would, which showed up as GC time.
func (m *merger) addTie(s int32, tied []int32) int32 {
	need := 2 + len(tied)
	if len(m.ties)+need > cap(m.ties) && 4*m.stale >= len(m.ties) {
		m.compact()
	}
	if len(m.ties)+need > cap(m.ties) {
		grown := make([]int32, len(m.ties), max(2*cap(m.ties), len(m.ties)+need, len(m.choice)))
		copy(grown, m.ties)
		m.ties = grown
	}
	o := len(m.ties)
	m.ties = append(append(m.ties, s, int32(len(tied))), tied...)
	m.tied.set(s)
	return tieTag(o)
}

// compact slides the current tie records down over the stale ones,
// re-tagging their slots.
func (m *merger) compact() {
	w := 0
	for o := 0; o < len(m.ties); {
		rec := m.ties[o:]
		n := tieLen(rec)
		if s := rec[0]; s != noSlot {
			copy(m.ties[w:], rec[:n])
			m.choice[s] = tieTag(w)
			w += n
		}
		o += n
	}
	m.ties = m.ties[:w]
	m.stale = 0
}

// bitset is a set of slots, one bit each.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(s int32)   { b[s>>6] |= 1 << (s & 63) }
func (b bitset) unset(s int32) { b[s>>6] &^= 1 << (s & 63) }

// all yields the members in ascending order: range over b.all.
func (b bitset) all(yield func(int32) bool) {
	for i, w := range b {
		for w != 0 {
			if !yield(int32(i<<6 + bits.TrailingZeros64(w))) {
				return
			}
			w &= w - 1
		}
	}
}
