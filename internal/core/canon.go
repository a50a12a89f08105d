package core

import (
	"fmt"
	"math/bits"

	"shufflenet/internal/network"
)

// canonizer is the per-network static analysis under the optimum
// search: everything about the circuit that does not depend on the
// pattern being enumerated is computed here once and shared (read-only)
// by every worker. It owns
//
//   - the assignment order: a permutation of the input wires chosen so
//     that comparator cones close as early as possible, which is what
//     lets the incremental simulation witness collisions near the root
//     of the search tree instead of near its leaves;
//   - the trigger schedule for that order (the groups fire runs);
//   - the residual-state geometry: which rails are still readable at
//     each search boundary, and at which boundaries two distinct
//     prefixes can first map to the same residual state;
//   - the direct-pair capacity bound: input wires that provably meet at
//     a first-contact comparator can contribute at most one M between
//     them, and these pairs form a matching, so the bound is exact and
//     O(1) to maintain during the descent;
//   - the network's verified wire-relabeling automorphisms and mirror
//     (direction-reversing) anti-automorphisms, and the canonical
//     residual-state key that quotients the transposition table by
//     them.
//
// The canonizer holds no mutable search state: the search passes the
// rail symbols around by value as a railState.
type canonizer struct {
	n int
	// order[t] is the input wire assigned at search step t; stepOf is
	// its inverse. The order is the greedy cone-closing heuristic of
	// assignOrder, identical for every run on the same network.
	order  []int32
	stepOf []int32
	// trigger[t] lists the comparators whose outcome becomes
	// determined when step t's wire is assigned, level-major within
	// the group, as railState shift pairs.
	trigger [][]railPair
	// lastTouch[r] is the last step whose trigger group contains a
	// comparator touching rail r, or -1 if no comparator ever does.
	lastTouch []int32
	// liveList[t] lists, ascending, the rails whose boundary-t value is
	// still read by some unfired comparator: the residual state at
	// boundary t is exactly the symbols on these rails (dead rails and
	// unassigned rails cannot influence any completion).
	liveList [][]int32
	// liveMask[t] is liveList[t] as a railState mask (both bits of
	// every live rail).
	liveMask []railState
	// probeAt[t] reports whether two prefixes that differ at boundary
	// t-1 can first coincide at boundary t. States merge only when a
	// trigger group fires (sorting is lossy) or a rail dies, and a rail
	// dies at t only if a group-(t-1) comparator was its last touch —
	// so both reduce to "trigger[t-1] is nonempty". Memo probes and
	// stores are gated on this: at every other boundary a lookup could
	// only rediscover the current path.
	probeAt []bool
	// mOnly[t] reports that step t's wire is read by no comparator at
	// all: its symbol is invisible to the simulation, so only the M
	// branch can matter (S and L reach the same residual state with one
	// fewer M).
	mOnly []bool
	// partner[w] is the input wire that provably meets wire w at the
	// first comparator on both their rails (-1 if none). Each rail's
	// first comparator is unique, so these pairs form a matching; if
	// both ends are M the pair collides, so each pair contributes at
	// most one M to any noncolliding pattern.
	partner []int32
	// capInit = n - (number of partner pairs): the root value of the
	// pair-capacity bound maintained by the descent.
	capInit int
	// autos are the verified symmetries usable for canonicalization;
	// salt/salt2 fold the network structure into the memo keys so one
	// table can be shared between concurrent searches on different
	// networks.
	autos       []autoMap
	salt, salt2 uint64
}

// autoMap is one verified symmetry of the network. For a plain
// automorphism, relabeling rails by perm maps every level's directed
// comparator set onto itself; for a mirror anti-automorphism the
// directions reverse (Min and Max swap), which on patterns is the
// S <-> L value swap — the 0/1/⊥ symmetry of the three-letter
// alphabet. Either way the map sends residual states to residual
// states with the same best achievable completion.
type autoMap struct {
	perm   []int32
	inv    []int32
	mirror bool
	// stab[t] reports that perm fixes the set of wires assigned before
	// boundary t (and hence the boundary's live-rail set): only then
	// does the transported state live at the same boundary.
	stab []bool
}

const (
	// maxAutos caps the symmetry group (including the identity) that
	// canonical keys minimize over. The kept set is always a genuine
	// subgroup — closed under composition, hence under inverse — so
	// the key is a class function: states related by a kept symmetry
	// get identical keys. Discovered generators whose closure would
	// exceed the cap are dropped, which is sound (a smaller subgroup
	// only coarsens the quotient) and keeps the per-probe cost bounded
	// on highly symmetric networks.
	maxAutos = 32
	// autoSearchBudget caps the backtracking nodes spent discovering
	// symmetries; dense random networks fail the color refinement long
	// before this bites.
	autoSearchBudget = 1 << 17
)

// newCanonizer runs the full static analysis for c.
func newCanonizer(c *network.Network) *canonizer {
	n := c.Wires()
	if n > 32 {
		panic("core: canonizer requires n <= 32 (wire sets are bitmasks)")
	}
	cz := &canonizer{n: n}

	// Level-major comparator list (rail indices, min rail first) and
	// per-comparator cone masks. coneMask[r] = set of input wires
	// influencing rail r's value after the comparators scanned so far.
	type compCone struct {
		cone uint32
	}
	coneMask := make([]uint32, n)
	for r := range coneMask {
		coneMask[r] = 1 << uint(r)
	}
	var comps [][2]int32
	var cones []compCone
	for _, lv := range c.Levels() {
		for _, cm := range lv {
			comps = append(comps, [2]int32{int32(cm.Min), int32(cm.Max)})
			cone := coneMask[cm.Min] | coneMask[cm.Max]
			coneMask[cm.Min], coneMask[cm.Max] = cone, cone
			cones = append(cones, compCone{cone: cone})
		}
	}
	m := len(comps)

	// Assignment order: greedily complete the comparator with the
	// fewest unassigned cone wires, preferring (on ties) the one whose
	// cone overlaps the assigned set most and then level-major order.
	// This walks up each cone tree as soon as its leaves are paid for,
	// so collisions are witnessed at the shallowest possible depth.
	cz.order = make([]int32, 0, n)
	cz.stepOf = make([]int32, n)
	var assigned uint32
	fired := make([]bool, m)
	appendWire := func(w int) {
		cz.stepOf[w] = int32(len(cz.order))
		cz.order = append(cz.order, int32(w))
		assigned |= 1 << uint(w)
	}
	for len(cz.order) < n {
		best, bestMissing, bestOverlap := -1, n+1, -1
		for ci := 0; ci < m; ci++ {
			if fired[ci] {
				continue
			}
			missing := bits.OnesCount32(cones[ci].cone &^ assigned)
			if missing == 0 {
				fired[ci] = true
				continue
			}
			overlap := bits.OnesCount32(cones[ci].cone & assigned)
			if missing < bestMissing || (missing == bestMissing && overlap > bestOverlap) {
				best, bestMissing, bestOverlap = ci, missing, overlap
			}
		}
		if best < 0 {
			for w := 0; w < n; w++ {
				if assigned&(1<<uint(w)) == 0 {
					appendWire(w)
				}
			}
			break
		}
		miss := cones[best].cone &^ assigned
		for w := 0; w < n; w++ {
			if miss&(1<<uint(w)) != 0 {
				appendWire(w)
			}
		}
		fired[best] = true
	}

	// Trigger groups under that order: comparator ci fires at the step
	// assigning the last wire of its cone. Appending level-major keeps
	// each group level-major, which is what makes firing a group
	// equivalent to the level-major simulation (see fire).
	cz.trigger = make([][]railPair, n)
	group := make([]int32, m)
	for ci := 0; ci < m; ci++ {
		g := int32(-1)
		cone := cones[ci].cone
		for cone != 0 {
			w := bits.TrailingZeros32(cone)
			cone &= cone - 1
			if s := cz.stepOf[w]; s > g {
				g = s
			}
		}
		group[ci] = g
		a, b := comps[ci][0], comps[ci][1]
		cz.trigger[g] = append(cz.trigger[g], railPair{a: uint8(2 * a), b: uint8(2 * b)})
	}

	// Rail liveness per boundary. Rail r's boundary value is read by a
	// future comparator iff some comparator touching r is in a group
	// >= t; all of them are in groups >= stepOf[r] (r is in their
	// cones), so rails of unassigned wires are never live.
	cz.lastTouch = make([]int32, n)
	for r := range cz.lastTouch {
		cz.lastTouch[r] = -1
	}
	for ci := 0; ci < m; ci++ {
		for _, r := range comps[ci] {
			if group[ci] > cz.lastTouch[r] {
				cz.lastTouch[r] = group[ci]
			}
		}
	}
	cz.liveList = make([][]int32, n+1)
	cz.liveMask = make([]railState, n+1)
	for t := 0; t <= n; t++ {
		var live []int32
		for r := 0; r < n; r++ {
			if int(cz.stepOf[r]) < t && cz.lastTouch[r] >= int32(t) {
				live = append(live, int32(r))
				cz.liveMask[t] |= 3 << (2 * uint(r))
			}
		}
		cz.liveList[t] = live
	}
	cz.probeAt = make([]bool, n+1)
	for t := 1; t <= n; t++ {
		cz.probeAt[t] = len(cz.trigger[t-1]) > 0
	}
	cz.mOnly = make([]bool, n)
	for t := 0; t < n; t++ {
		cz.mOnly[t] = cz.lastTouch[cz.order[t]] < 0
	}

	// Direct pairs: the first comparator on both its rails still sees
	// the raw input values, so its two wires meet unconditionally.
	cz.partner = make([]int32, n)
	for w := range cz.partner {
		cz.partner[w] = -1
	}
	touched := make([]bool, n)
	pairs := 0
	for ci := 0; ci < m; ci++ {
		a, b := comps[ci][0], comps[ci][1]
		if !touched[a] && !touched[b] {
			cz.partner[a], cz.partner[b] = b, a
			pairs++
		}
		touched[a], touched[b] = true, true
	}
	cz.capInit = n - pairs

	cz.salt, cz.salt2 = structureSalt(c)
	cz.findAutos(c)
	return cz
}

// structureSalt digests the comparator structure so canonical keys
// from different networks sharing one transposition table cannot
// alias each other except by hash collision.
func structureSalt(c *network.Network) (uint64, uint64) {
	h1 := uint64(0x9e3779b97f4a7c15) ^ uint64(c.Wires())
	h2 := uint64(0xc2b2ae3d27d4eb4f) + uint64(c.Wires())
	mix := func(v uint64) {
		h1 = (h1 ^ v) * 0x100000001b3
		h2 = (h2 + v) * 0xc6a4a7935bd1e995
		h2 ^= h2 >> 29
	}
	for _, lv := range c.Levels() {
		mix(0xa5a5a5a5)
		for _, cm := range lv {
			mix(uint64(cm.Min)<<32 | uint64(cm.Max))
		}
	}
	return h1, h2
}

// NetworkFingerprint digests the comparator structure (wire count and
// the full leveled comparator list) into a fixed 32-hex-digit string —
// the same salts the transposition table keys carry. Frontier journals
// and the shard coordinator stamp it on their records so a resume or a
// merge against a *different* network is refused up front instead of
// producing a silently wrong certificate.
func NetworkFingerprint(c *network.Network) string {
	h1, h2 := structureSalt(c)
	return fmt.Sprintf("%016x%016x", h1, h2)
}

// findAutos discovers up to maxAutos verified symmetries: wire
// relabelings mapping each level's directed comparator set onto itself
// (mirror=false), and relabelings mapping it onto the direction-
// reversed set (mirror=true). Candidates are pruned by iterated color
// refinement and every completed map is re-verified against the full
// comparator list, so a truncated or abandoned search is still sound —
// it just canonicalizes more coarsely.
func (cz *canonizer) findAutos(c *network.Network) {
	n := cz.n
	levels := c.Levels()
	L := len(levels)
	// role: 0 none, 1 min, 2 max; partner rail per level.
	role := make([][]uint8, L)
	lpart := make([][]int32, L)
	for l, lv := range levels {
		role[l] = make([]uint8, n)
		lpart[l] = make([]int32, n)
		for r := range lpart[l] {
			lpart[l][r] = -1
		}
		for _, cm := range lv {
			role[l][cm.Min], role[l][cm.Max] = 1, 2
			lpart[l][cm.Min], lpart[l][cm.Max] = int32(cm.Max), int32(cm.Min)
		}
	}

	refine := func(flip bool) []uint64 {
		col := make([]uint64, n)
		for r := range col {
			col[r] = 1
		}
		next := make([]uint64, n)
		for round := 0; round < 4; round++ {
			for r := 0; r < n; r++ {
				h := col[r] * 0x9e3779b97f4a7c15
				for l := 0; l < L; l++ {
					rr := role[l][r]
					if flip && rr != 0 {
						rr = 3 - rr
					}
					h = (h ^ uint64(rr)) * 0x100000001b3
					if p := lpart[l][r]; p >= 0 {
						h = (h ^ col[p]) * 0x100000001b3
					} else {
						h = (h ^ 0x7f) * 0x100000001b3
					}
				}
				next[r] = h
			}
			copy(col, next)
		}
		return col
	}
	cN := refine(false)
	cF := refine(true)

	// verify checks sigma against every comparator (colors are hashes;
	// this is the real gate).
	verify := func(sigma []int32, mirror bool) bool {
		for l := 0; l < L; l++ {
			for _, cm := range levels[l] {
				sa, sb := sigma[cm.Min], sigma[cm.Max]
				if mirror {
					sa, sb = sb, sa
				}
				if role[l][sa] != 1 || lpart[l][sa] != sb {
					return false
				}
			}
		}
		return true
	}

	budget := autoSearchBudget
	sigma := make([]int32, n)
	used := make([]bool, n)
	var search func(r int, mirror bool, target []uint64)
	search = func(r int, mirror bool, target []uint64) {
		if len(cz.autos) >= maxAutos || budget <= 0 {
			return
		}
		budget--
		if r == n {
			id := true
			for i := range sigma {
				if sigma[i] != int32(i) {
					id = false
					break
				}
			}
			if id && !mirror {
				return
			}
			if !verify(sigma, mirror) {
				return
			}
			cz.autos = append(cz.autos, autoMap{perm: append([]int32(nil), sigma...), mirror: mirror})
			return
		}
		for q := 0; q < n; q++ {
			if used[q] || cN[q] != target[r] {
				continue
			}
			// Local consistency: every level where r has a comparator to
			// an already-mapped partner must map onto a real comparator
			// with the right (possibly flipped) orientation.
			ok := true
			for l := 0; l < L && ok; l++ {
				rr := role[l][r]
				want := rr
				if mirror && rr != 0 {
					want = 3 - rr
				}
				if role[l][q] != want {
					ok = false
					break
				}
				if rr != 0 {
					p := lpart[l][r]
					if int(p) < r {
						if lpart[l][q] != sigma[p] {
							ok = false
						}
					}
				}
			}
			if !ok {
				continue
			}
			sigma[r] = int32(q)
			used[q] = true
			search(r+1, mirror, target)
			used[q] = false
			if len(cz.autos) >= maxAutos || budget <= 0 {
				return
			}
		}
	}
	search(0, false, cN)
	search(0, true, cF)

	// Close the discovered generators into a capped subgroup: the key
	// minimizes over whatever list it has, and only a genuine group
	// makes that minimum a class function (with a bare generator list,
	// key(x) and key(a·x) can disagree because a² or a⁻¹ is missing).
	// Generators whose closure would blow past maxAutos are dropped.
	gens := cz.autos
	cz.autos = nil
	sig := func(a autoMap) string {
		b := make([]byte, n+1)
		for i, v := range a.perm {
			b[i] = byte(v)
		}
		if a.mirror {
			b[n] = 1
		}
		return string(b)
	}
	identity := autoMap{perm: make([]int32, n)}
	for i := range identity.perm {
		identity.perm[i] = int32(i)
	}
	compose := func(x, y autoMap) autoMap { // apply y, then x
		c := autoMap{perm: make([]int32, n), mirror: x.mirror != y.mirror}
		for i := range c.perm {
			c.perm[i] = x.perm[y.perm[i]]
		}
		return c
	}
	group := []autoMap{identity}
	have := map[string]bool{sig(identity): true}
	for _, g := range gens {
		if have[sig(g)] {
			continue
		}
		trial := append(append([]autoMap(nil), group...), g)
		thave := map[string]bool{}
		for _, a := range trial {
			thave[sig(a)] = true
		}
		ok := true
		for grew := true; grew && ok; {
			grew = false
			for i := 0; i < len(trial) && ok; i++ {
				for j := 0; j < len(trial) && ok; j++ {
					c := compose(trial[i], trial[j])
					if s := sig(c); !thave[s] {
						thave[s] = true
						trial = append(trial, c)
						grew = true
						if len(trial) > maxAutos {
							ok = false
						}
					}
				}
			}
		}
		if ok {
			group = trial
			have = thave
		}
	}
	for _, a := range group {
		if s := sig(a); s == sig(identity) {
			continue
		}
		a.inv = make([]int32, n)
		for i, v := range a.perm {
			a.inv[v] = int32(i)
		}
		cz.autos = append(cz.autos, a)
	}

	// Boundary stabilization: auto a transports boundary-t states to
	// boundary-t states iff it fixes the assigned wire set.
	for ai := range cz.autos {
		a := &cz.autos[ai]
		a.stab = make([]bool, n+1)
		a.stab[0] = true
		var set, img uint32
		for t := 1; t <= n; t++ {
			w := cz.order[t-1]
			set |= 1 << uint(w)
			img |= 1 << uint(a.perm[w])
			a.stab[t] = set == img
		}
	}
}

// key returns the canonical transposition-table key for the residual
// state at boundary t: the lexicographically least image of the
// live-rail symbols under the applicable symmetries (identity always
// included; mirrors swap S and L), hashed twice with independent
// salts. h1 selects the bucket, h2 is stored as a verifier; together
// with the step byte that is ~91 bits of discrimination, so a false
// match — the only way the table could return a wrong bound — needs a
// hash collision, not just a bucket collision. scratch must have
// capacity n and is clobbered.
func (cz *canonizer) key(t int, st railState, scratch []uint8) (uint64, uint64) {
	live := cz.liveList[t]
	best := scratch[:len(live)]
	for i, r := range live {
		best[i] = st.rank(r)
	}
	for ai := range cz.autos {
		a := &cz.autos[ai]
		if !a.stab[t] {
			continue
		}
		better := false
		for i, r := range live {
			v := st.rank(a.inv[r])
			if a.mirror {
				v = 2 - v
			}
			if !better {
				if v > best[i] {
					break
				}
				if v == best[i] {
					continue
				}
				better = true
			}
			best[i] = v
		}
	}
	h1 := cz.salt ^ uint64(t)*0x9e3779b97f4a7c15
	h2 := cz.salt2 + uint64(t)*0xbf58476d1ce4e5b9
	for _, b := range best {
		h1 = (h1 ^ uint64(b)) * 0x100000001b3
		h2 = (h2 + uint64(b)) * 0xc6a4a7935bd1e995
		h2 ^= h2 >> 29
	}
	return h1, h2
}
