package plan

import (
	"sort"

	"porcupine/internal/quill"
)

// shareWindow bounds how far apart (in schedule positions) two
// rotations may sit and still fuse into one shared group: wide enough
// to fuse the corresponding levels of two back-to-back log-depth
// reduction trees over 16-slot windows (8 schedule entries apart),
// small enough to keep at most a handful of sources live.
const shareWindow = 8

// shareRotations is Pass 4b of Compile: double-hoisted rotation
// grouping. It dissolves Pass 3's fan-out groups and collects every
// surviving rotation into per-amount OpSharedRot groups, so the
// executor resolves the shared Galois state once per group (batching
// across sources) AND decomposes every source at most once per plan
// (hoisting across amounts, sources, and schedule distance
// simultaneously).
//
// The unit of grouping is one rotation: (source, amount) pairs are
// unique after Pass 1's rotation CSE, so a group's members always
// carry distinct sources. Rotations of a source that is rotated ≥2
// times anywhere in the schedule always leave the plain-step pool —
// even as a singleton group — because every rotation after the
// source's first replays the decomposition its Fresh member left in a
// session slot. A source rotated exactly once gains nothing from a
// slot; its rotation joins a group only when ≥2 rotations share the
// amount (the batching win), and otherwise stays a plain serial step,
// which keeps it eligible for level-parallel execution instead of the
// caller-serial scratch path shared groups run on.
//
// Fusing moves member rotations up to the leader's position, which is
// legal exactly when each member's source is defined before the leader
// (a pure rotation has no other operand, and its consumers all sit at
// or after the member's original position). The window bounds how far
// a member may move: every member source stays live until the group
// executes — and until its LAST shared rotation when slots replay it —
// so the window caps the register- and slot-pressure cost of fusion.
func shareRotations(l *quill.Lowered, canon []int, sched []schedEntry, nIn int, norm func(int) int) []schedEntry {
	// defPos[v] is the schedule position defining canonical value v
	// (-1 for inputs: defined before everything).
	defPos := make([]int, l.NumValues())
	for v := range defPos {
		defPos[v] = -1
	}
	for s, e := range sched {
		if e.members != nil {
			for _, m := range e.members {
				defPos[nIn+m] = s
			}
			continue
		}
		defPos[nIn+e.idx] = s
	}

	// Rotation units: every surviving rotation, whether Pass 3 fused it
	// into a fan or left it plain, at the schedule position it would
	// execute. srcRots counts rotations per canonical source — the
	// sharing pass's own fan detector, since fan groups dissolve here.
	type unit struct {
		pos int // schedule position of the defining entry
		idx int // instruction index
		src int // canonical source value
		amt int // canonical rotation amount
	}
	var units []unit
	srcRots := map[int]int{}
	fromFan := map[int]bool{} // schedule positions holding dissolved fans
	for s, e := range sched {
		if e.members != nil {
			fromFan[s] = true
			for _, m := range e.members {
				in := l.Instrs[m]
				u := unit{pos: s, idx: m, src: canon[in.A], amt: norm(in.Rot)}
				units = append(units, u)
				srcRots[u.src]++
			}
			continue
		}
		if in := l.Instrs[e.idx]; in.Op == quill.OpRotCt {
			u := unit{pos: s, idx: e.idx, src: canon[in.A], amt: norm(in.Rot)}
			units = append(units, u)
			srcRots[u.src]++
		}
	}
	if len(units) == 0 {
		return sched
	}

	// Bucket units by canonical amount in schedule order (units is
	// already position-sorted: fans dissolve at their group position).
	byAmt := map[int][]int{}
	var amts []int
	for i, u := range units {
		if len(byAmt[u.amt]) == 0 {
			amts = append(amts, u.amt)
		}
		byAmt[u.amt] = append(byAmt[u.amt], i)
	}

	// Greedy window fusion per amount: the earliest unconsumed unit
	// leads, later units within the window join when their source is
	// defined before the leader. A group survives as OpSharedRot when it has ≥2 members (shared Galois
	// state) or its members include a multi-rotation source (resident
	// decomposition); a singleton of a once-rotated source returns to
	// the plain-step pool.
	type group struct {
		pos     int   // leader schedule position
		idx     int   // leader instruction index
		members []int // member instruction indices
	}
	var groups []group
	grouped := map[int]bool{} // instruction index → emitted in a group
	for _, r := range amts {
		us := byAmt[r]
		used := make([]bool, len(us))
		for i := range us {
			if used[i] {
				continue
			}
			lead := units[us[i]]
			members := []int{lead.idx}
			for j := i + 1; j < len(us) && units[us[j]].pos-lead.pos <= shareWindow; j++ {
				if used[j] {
					continue
				}
				if defPos[units[us[j]].src] >= lead.pos {
					continue // source not yet defined at the leader
				}
				used[j] = true
				members = append(members, units[us[j]].idx)
			}
			if len(members) < 2 && srcRots[lead.src] < 2 {
				continue // a lone rotation of a once-rotated source
			}
			used[i] = true
			groups = append(groups, group{pos: lead.pos, idx: lead.idx, members: members})
			for _, m := range members {
				grouped[m] = true
			}
		}
	}
	if len(groups) == 0 && len(fromFan) == 0 {
		return sched
	}

	// Rebuild the schedule: groups emit at their leader's position (in
	// leader instruction order when several share one position — i.e.
	// several amounts of one dissolved fan), fused plain entries drop,
	// and dissolved-fan units that stayed ungrouped return as plain
	// entries at their fan's position.
	groupsAt := map[int][]int{} // schedule position → indices into groups
	for g := range groups {
		groupsAt[groups[g].pos] = append(groupsAt[groups[g].pos], g)
	}
	for _, gs := range groupsAt {
		sort.Slice(gs, func(a, b int) bool { return groups[gs[a]].idx < groups[gs[b]].idx })
	}
	out := make([]schedEntry, 0, len(sched))
	emitAt := func(s int) {
		for _, g := range groupsAt[s] {
			out = append(out, schedEntry{idx: groups[g].idx, members: groups[g].members, shared: true})
		}
	}
	for s, e := range sched {
		if fromFan[s] {
			emitAt(s)
			for _, m := range e.members {
				if !grouped[m] { // defensive: fan units always group
					out = append(out, schedEntry{idx: m})
				}
			}
			continue
		}
		if in := l.Instrs[e.idx]; in.Op == quill.OpRotCt && grouped[e.idx] {
			emitAt(s) // emits iff this entry's unit leads its group
			continue
		}
		out = append(out, e)
	}
	return out
}
