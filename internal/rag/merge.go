package rag

import (
	"fmt"
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
	ties  []int32
	stale int
	// runner holds, under LargestID only, each slot's runner-up when its
	// pick came from a tie: the second-largest tied ID at its scan, or
	// noSlot for a sole pick. flips tests a renamed pick against it.
	runner  []int32
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
	if policy == LargestID {
		m.runner = make([]int32, n)
	}
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
			if m.runner != nil {
				m.runner[s] = noSlot
			}
		case len(m.scratch) > 0 && m.policy == Random:
			m.choice[s] = m.addTie(s, m.scratch)
		case len(m.scratch) > 0:
			// SmallestID and LargestID are never forced to switch and
			// their draw ignores the round, so the pick holds while s
			// stays clean and the tie list need not be kept; LargestID
			// keeps only its runner-up.
			m.choice[s] = pickTied(m.scratch, m.policy, 0, g.ids[s])
			if m.runner != nil {
				m.runner[s] = g.ids[m.scratch[len(m.scratch)-2]]
			}
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
// mutual pair into one region named by its smaller ID and returns how
// many it merged. The search starts only from the fresh slots and, since a
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
	merged := 0
	for s := range m.fresh.all {
		c := m.chosen(s)
		if c == noSlot || m.chosen(c) != s {
			continue // a contracted slot has no choice, so each pair merges once
		}
		m.contract(s, c)
		merged++
	}
	clear(m.fresh)
	return merged
}

// hubFactor is how many times longer than the smaller-ID endpoint's
// adjacency list the other endpoint's must be before the merged region
// keeps the other's slot. Keeping a hub in its slot spares each of its
// neighbours a swap and a rescan; but the slot then takes the smaller
// ID, which every neighbour must test and a tied one under Random must
// rescan, so between lists of about equal length the move gains nothing
// and costs the tests.
const hubFactor = 2

// contract merges the mutual pair a, b into one region named by the
// smaller of their IDs. The region stays in the smaller-ID slot, the
// keeper k, unless the other slot's list is more than hubFactor times
// longer: then the other slot keeps it and takes the smaller ID. The
// remaining slot l goes dead. contract marks for rescan every slot whose
// choice that can change: k, whose adjacency took l's; every neighbour of
// l, whose list swapped l for k; when k's interval widened, every
// neighbour of k, which reads it; and, when k took the smaller ID, each
// other neighbour of k whose pick the new ID can flip (see flips). No
// other slot's list, neighbour intervals or tie order change, so no other
// choice can.
func (m *merger) contract(a, b int32) {
	g := m.g
	k, l := a, b
	if g.ids[l] < g.ids[k] {
		k, l = l, k
	}
	id := g.ids[k]
	if len(g.adj[l]) > hubFactor*len(g.adj[k]) {
		k, l = l, k
	}
	for _, n := range g.adj[l] {
		m.dirty.set(n) // k among them
	}
	lo, hi := g.lo[k], g.hi[k]
	g.contractSlots(k, l)
	m.retire(l)
	m.nActive-- // l had a choice: k
	renamed := g.ids[k] != id
	if renamed {
		// k's choice was made under its old ID, which a Random draw
		// hashes, so it must not pair again this round.
		g.ids[k] = id
		m.retire(k)
		m.nActive-- // k had a choice: l
	}
	switch {
	case g.lo[k] != lo || g.hi[k] != hi:
		for _, n := range g.adj[k] {
			m.dirty.set(n)
		}
	case renamed:
		for _, n := range g.adj[k] {
			if !m.dirty.has(n) && m.flips(n, k) {
				m.dirty.set(n)
			}
		}
	}
}

// flips reports whether slot k's new, smaller ID can change the pick of
// its clean neighbour n. n's list and its neighbours' intervals are as
// at its scan, so only the ID order among its tied neighbours can move:
//   - SmallestID: k is tied with n's pick and now below it;
//   - LargestID: k is n's pick and now below the runner-up, the
//     second-largest tied ID at n's scan (IDs only fall, so no tied ID
//     is above it now); a tie list that merely holds k keeps its
//     largest, since k fell;
//   - Random: n holds a tie record at its weight to k, whose order the
//     draw indexes.
//
// Rescanning every tied neighbour instead would rescan nearly all of a
// LargestID hub's neighbours each round, since they pick the hub from a
// tie, and almost none of those picks change.
func (m *merger) flips(n, k int32) bool {
	g := m.g
	c := m.choice[n]
	switch m.policy {
	case SmallestID:
		return c != noSlot && g.ids[k] < g.ids[c] && g.weightSlots(n, k) == g.weightSlots(n, c)
	case LargestID:
		return c == k && g.ids[k] < m.runner[n]
	case Random:
		return c < noSlot && g.weightSlots(n, k) == g.weightSlots(n, tieList(m.ties[tieOffset(c):])[0])
	default:
		panic(fmt.Sprintf("rag: unknown tie policy %d", int(m.policy)))
	}
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

func (b bitset) set(s int32)      { b[s>>6] |= 1 << (s & 63) }
func (b bitset) unset(s int32)    { b[s>>6] &^= 1 << (s & 63) }
func (b bitset) has(s int32) bool { return b[s>>6]&(1<<(s&63)) != 0 }

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
