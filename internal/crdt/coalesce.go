package crdt

// Change coalescing compacts an outbound wire batch by dropping ops that
// are provably eclipsed by a later op in the same batch — per-key
// last-writer compaction. A burst of writes to the same map key (the
// shape statesync produces when a hot global or table row is updated
// many times between sync rounds) then ships only the winning write.
//
// Coalescing never drops or merges a Change: change identity (Actor,
// Seq) is what version vectors track, so every change in the batch
// survives with its sequence intact — only its op list shrinks. An op is
// elided only when final-state equivalence is guaranteed against any
// interleaving with third-party ops:
//
//   - OpSet/OpDel on a map (obj, key): LWW per key, larger timestamp
//     wins. An op is eclipsed by a later batch op on the same key with a
//     strictly greater timestamp — any external op either beats the
//     winner (and would have beaten the eclipsed op too) or loses to it.
//   - OpUpdate on a list element (obj, elem): LWW per element, same
//     reasoning; additionally eclipsed by any later OpRemove of the
//     element, because removal tombstones it regardless of timestamps.
//
// OpMake, OpInsert, OpAdd, and OpRemove are never elided: makes and
// inserts create identities later ops reference, counter adds are
// cumulative, and removes are the eclipsing tombstones themselves.

type mapTarget struct {
	obj ObjID
	key string
}

type elemTarget struct {
	obj  ObjID
	elem string
}

// CoalesceChanges returns the batch with eclipsed ops elided and the
// number of ops dropped. When nothing is elidable it returns chs
// unchanged (no copy); otherwise affected changes are rebuilt with fresh
// op slices, so shared change history is never mutated.
func CoalesceChanges(chs []Change) ([]Change, int) {
	// One op eclipses nothing: the batch of a single one-op change — a
	// one-cell update pushed as soon as it commits — skips the maps.
	if len(chs) == 0 || len(chs) == 1 && len(chs[0].Ops) < 2 {
		return chs, 0
	}
	// Backward scan recording, per target, the winning (greatest) kept
	// timestamp so far; an earlier op that loses to it can never shape
	// final state.
	var (
		mapWins  map[mapTarget]TS
		elemWins map[elemTarget]TS
		removed  map[elemTarget]bool
		elided   map[int][]bool // change index → per-op elide flags
		dropped  int
	)
	lazyInit := func() {
		if mapWins == nil {
			mapWins = make(map[mapTarget]TS)
			elemWins = make(map[elemTarget]TS)
			removed = make(map[elemTarget]bool)
		}
	}
	for i := len(chs) - 1; i >= 0; i-- {
		ops := chs[i].Ops
		for j := len(ops) - 1; j >= 0; j-- {
			op := &ops[j]
			switch op.Type {
			case OpSet, OpDel:
				lazyInit()
				t := mapTarget{op.Obj, op.Key}
				if win, ok := mapWins[t]; ok && op.TS.Less(win) {
					dropped++
					if elided == nil {
						elided = make(map[int][]bool)
					}
					if elided[i] == nil {
						elided[i] = make([]bool, len(ops))
					}
					elided[i][j] = true
					continue
				}
				mapWins[t] = op.TS
			case OpUpdate:
				lazyInit()
				t := elemTarget{op.Obj, op.Elem}
				win, ok := elemWins[t]
				if removed[t] || (ok && op.TS.Less(win)) {
					dropped++
					if elided == nil {
						elided = make(map[int][]bool)
					}
					if elided[i] == nil {
						elided[i] = make([]bool, len(ops))
					}
					elided[i][j] = true
					continue
				}
				elemWins[t] = op.TS
			case OpRemove:
				lazyInit()
				removed[elemTarget{op.Obj, op.Elem}] = true
			}
		}
	}
	if dropped == 0 {
		return chs, 0
	}
	out := make([]Change, len(chs))
	copy(out, chs)
	for i, flags := range elided {
		kept := make([]Op, 0, len(out[i].Ops))
		for j, op := range out[i].Ops {
			if !flags[j] {
				kept = append(kept, op)
			}
		}
		out[i].Ops = kept
	}
	return out, dropped
}
