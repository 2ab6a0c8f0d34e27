package quantum

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"rasengan/internal/bitvec"
	"rasengan/internal/parallel"
)

// This file is the compiled feasible-subspace engine. The map-based Sparse
// state pays hashing, bitvec.Vec key copies, and a support snapshot on every
// ApplyTransition of every optimizer iteration, even though the pairing
// structure of a transition schedule is fixed once the schedule is: only the
// evolution angles change between iterations. CompileSpace walks that fixed
// structure once — it enumerates the closure of the seed solution under every
// scheduled transition vector, assigns each reachable basis state a dense
// int32 index, and precomputes, per distinct vector, the index of every
// state's transition partner. A CompiledState is then a flat []complex128
// over that closure: each ApplyTransition is 2×2 rotations over array slots
// with no maps, no hashing, and no steady-state allocations.
//
// The engine is exact on its domain: the closure is closed under every
// scheduled move, so a state seeded inside it never leaves (the paper's
// feasible-span invariant), and the pair arithmetic below is the same
// operations in the same order as Sparse.ApplyTransition — including the
// sparseEps prune — so amplitudes, supports, and sampling CDFs are
// bit-identical to the map engine. Noise channels can scatter a state out of
// the closure, which is why the executor only selects this engine for
// noise-free runs.

// DefaultCompiledMaxStates caps the enumerated closure when the caller does
// not supply a bound: 2^17 states keeps the flat amplitude array (2 MiB) and
// the per-operator partner tables comfortably in memory.
const DefaultCompiledMaxStates = 1 << 17

// compiledPairBudget caps len(states)·(distinct operators): the partner
// tables are the dominant memory cost (4 bytes per state per distinct
// vector), and a schedule with many distinct vectors over a large closure is
// better served by the map engine than by a hundred-MiB compile artifact.
// CompileSpace holds nothing of that size beside them: a compile at the
// budget (2^17 states × 64 vectors) peaks at about 41 MB resident, the
// 32 MiB of tables plus 4 MiB of states and their index.
const compiledPairBudget = 1 << 23

// Sharding thresholds of the compiled transition kernel. Supports below
// compiledShardMin stay serial — goroutine handoff costs more than the
// rotation loop itself — and chunk boundaries depend only on the snapshot
// length, never the worker count, so activation order (and therefore every
// float) is bit-identical at any parallelism.
const (
	compiledShardMin = 1 << 12
	compiledChunk    = 1 << 11
)

// CompiledSpace is the immutable compile artifact: the reachable closure of
// one seed state under a transition schedule, with per-operator partner
// schedules. It is built once per Executor and shared read-only by every
// clone's CompiledState.
type CompiledSpace struct {
	n      int
	states []bitvec.Vec // sorted by bitvec.Compare; index == rank
	index  *bitvec.Set  // the closure's table: the inverse of states
	opRow  []int32      // schedule op -> row in partners (-1: all-zero op)
	// partners[r][i] encodes state i's role under distinct vector r:
	// 0 — fixed point (no valid partner in either direction);
	// +(j+1) — i is the lower pair member, partner j = i+u;
	// -(j+1) — i is the upper pair member, partner j = i-u.
	partners [][]int32
	pairs    int // total lower-member entries across partner rows
}

// CompileSpace enumerates the closure of init under the transition vectors
// ops (entries in {-1,0,+1}, one vector per scheduled operator) and compiles
// the per-operator partner schedules. It returns ok=false when the closure
// exceeds maxStates (<=0 means DefaultCompiledMaxStates) or the partner
// tables would exceed the memory budget — the caller falls back to the map
// engine in that case.
func CompileSpace(init bitvec.Vec, ops [][]int64, maxStates int) (*CompiledSpace, bool) {
	n := init.Len()
	for _, u := range ops {
		if len(u) != n {
			panic(fmt.Sprintf("quantum: compile with %d-entry transition vector on %d qubits", len(u), n))
		}
	}
	if maxStates <= 0 {
		maxStates = DefaultCompiledMaxStates
	}

	// Dedupe operators by content: schedules cycle a small pool of distinct
	// vectors, so partner tables are per distinct vector, not per op. An
	// all-zero vector is marked -1: H^τ(0) is treated as a no-op by
	// ApplyTransition, so it is compiled away.
	opRow := make([]int32, len(ops))
	var distinct []bitvec.Move
	rows := make(map[bitvec.Move]int32)
	noop := bitvec.NewMove(make([]int64, n))
	for i, u := range ops {
		m := bitvec.NewMove(u)
		if m == noop {
			opRow[i] = -1
			continue
		}
		r, seen := rows[m]
		if !seen {
			r = int32(len(distinct))
			distinct = append(distinct, m)
			rows[m] = r
		}
		opRow[i] = r
	}

	// Closure enumeration: breadth-first from the seed under ±u for every
	// distinct vector, to fixpoint. Any state a run can ever occupy is in
	// this set — each ApplyTransition moves amplitude only along ±u edges —
	// so the flat arrays below cover every reachable support. Both caps
	// grow with the closure, so the first state that passes one fails the
	// compile.
	d := len(distinct)
	closure := bitvec.NewSet(init)
	for i := 0; i < closure.Len(); i++ {
		x := closure.States()[i]
		for r := range distinct {
			closure.Step(x, &distinct[r])
		}
		if closure.Len() > maxStates || closure.Len()*d > compiledPairBudget {
			return nil, false
		}
	}

	// Sorted by Compare: ascending index order is ascending basis-state
	// order, so index-ordered reductions match the map engine's
	// sorted-key-order float accumulation bit for bit. The partner tables
	// share one backing array. The closure is closed under every move, so
	// Step adds nothing here: it finds each partner's index and direction.
	closure.Sort()
	size := closure.Len()
	cs := &CompiledSpace{
		n:        n,
		states:   closure.States(),
		index:    closure,
		opRow:    opRow,
		partners: make([][]int32, d),
	}
	flat := make([]int32, d*size)
	for r := range cs.partners {
		cs.partners[r] = flat[r*size : (r+1)*size : (r+1)*size]
	}
	for k, x := range cs.states {
		for r := range distinct {
			switch j, dir, _ := closure.Step(x, &distinct[r]); dir {
			case 1:
				cs.partners[r][k] = j + 1
				cs.pairs++
			case -1:
				cs.partners[r][k] = -(j + 1)
			}
		}
	}
	return cs, true
}

// NumQubits returns the register width.
func (cs *CompiledSpace) NumQubits() int { return cs.n }

// Size returns the number of basis states in the compiled closure.
func (cs *CompiledSpace) Size() int { return len(cs.states) }

// NumOps returns the number of scheduled operators the space was compiled
// for.
func (cs *CompiledSpace) NumOps() int { return len(cs.opRow) }

// NumDistinctOps returns how many distinct transition vectors the schedule
// contains (the number of partner tables held in memory).
func (cs *CompiledSpace) NumDistinctOps() int { return len(cs.partners) }

// NumPairs returns the total number of transition pairs across all distinct
// operators — the rotation work of one full-schedule sweep at full support.
func (cs *CompiledSpace) NumPairs() int { return cs.pairs }

// StateAt returns the basis state with dense index i.
func (cs *CompiledSpace) StateAt(i int32) bitvec.Vec { return cs.states[i] }

// IndexOf returns the dense index of x, if x is in the closure.
func (cs *CompiledSpace) IndexOf(x bitvec.Vec) (int32, bool) { return cs.index.Index(x) }

// NewState returns a zero (null) state over the compiled closure. Call
// Reset/ResetState before use.
func (cs *CompiledSpace) NewState() *CompiledState {
	return &CompiledState{
		space: cs,
		amps:  make([]complex128, len(cs.states)),
		stamp: make([]uint64, len(cs.states)),
		epoch: 1,
	}
}

// CompiledState is a statevector over a CompiledSpace: a flat amplitude
// array plus an active-index list tracking the (typically small) support.
// ApplyTransition touches only active slots, so per-op cost is O(support),
// matching the map engine's asymptotics without its constant factors.
//
// The epoch/stamp scheme makes "is index i active" an array compare:
// stamp[i] == epoch. Reset bumps the epoch instead of clearing stamps, so a
// reset is O(previous support), and a pruned slot un-stamps with stamp 0
// (epochs start at 1 and only grow, so 0 never matches).
type CompiledState struct {
	space  *CompiledSpace
	amps   []complex128
	stamp  []uint64
	epoch  uint64
	active []int32

	// Reused scratch: per-chunk activation buffers of the sharded kernel
	// (appended in chunk order, so activation order is worker-count
	// independent) and the CDF/draw buffers of Sample.
	chunkActs [][]int32
	cdf       []float64
	draws     []float64

	// workers caps the sharded kernel's fan-out for this state; 0 means
	// the package default width. Set through SetWorkerLimit by callers
	// holding a compute-budget lease; any value yields bit-identical
	// amplitudes (chunk boundaries ignore the worker count).
	workers int
}

// SetWorkerLimit caps this state's transition-kernel parallelism; n <= 0
// restores the package default. Safe to change between ApplyTransition
// calls — the limit is a pure performance knob.
func (s *CompiledState) SetWorkerLimit(n int) {
	if n < 0 {
		n = 0
	}
	s.workers = n
}

// workerLimit resolves the state's effective fan-out width.
func (s *CompiledState) workerLimit() int {
	if s.workers > 0 {
		return s.workers
	}
	return parallel.Workers()
}

// Space returns the compiled closure the state lives on.
func (s *CompiledState) Space() *CompiledSpace { return s.space }

// NumQubits returns the register width.
func (s *CompiledState) NumQubits() int { return s.space.n }

// Size returns the number of active (stored) basis states, matching
// Sparse.Size — entries below the prune threshold are dropped after every
// transition, so this equals the map engine's stored-key count.
func (s *CompiledState) Size() int { return len(s.active) }

// Reset re-seeds the state to the basis state with dense index i. Previous
// amplitudes are cleared in O(previous support).
func (s *CompiledState) Reset(i int32) {
	for _, k := range s.active {
		s.amps[k] = 0
	}
	s.active = s.active[:0]
	s.epoch++
	s.amps[i] = 1
	s.stamp[i] = s.epoch
	s.active = append(s.active, i)
}

// ResetState is Reset by basis state; it reports whether x is inside the
// compiled closure.
func (s *CompiledState) ResetState(x bitvec.Vec) bool {
	i, ok := s.space.index.Index(x)
	if !ok {
		return false
	}
	s.Reset(i)
	return true
}

// Amplitude returns ⟨x|ψ⟩ (zero for states outside the closure).
func (s *CompiledState) Amplitude(x bitvec.Vec) complex128 {
	i, ok := s.space.index.Index(x)
	if !ok {
		return 0
	}
	return s.amps[i]
}

// AmpAt returns the amplitude at dense index i.
func (s *CompiledState) AmpAt(i int32) complex128 { return s.amps[i] }

// ApplyTransition applies exp(-i·H^τ(u)·t) for scheduled operator op — the
// same Equation 6 pairing as Sparse.ApplyTransition, over precompiled
// partner indices instead of map probes. It is ApplyTransitionCS with the
// angle's cosine and sine taken here; callers that apply one operator to
// many states compute them once and call ApplyTransitionCS.
func (s *CompiledState) ApplyTransition(op int, t float64) {
	s.ApplyTransitionCS(op, math.Cos(t), math.Sin(t))
}

// ApplyTransitionCS applies exp(-i·H^τ(u)·t) for scheduled operator op given
// cos t and sin t. Only the snapshot prefix of the active list is processed;
// states activated mid-pass (partners entering the support) are appended
// behind it, exactly mirroring the map engine's support-snapshot semantics.
// Pairs under a fixed u are disjoint, so each pair is rotated exactly once:
// from its lower member when that member is in the snapshot, from the upper
// member otherwise.
func (s *CompiledState) ApplyTransitionCS(op int, cos, sin float64) {
	r := s.space.opRow[op]
	if r < 0 {
		return // all-zero vector: no-op, as in Sparse
	}
	row := s.space.partners[r]
	ct := complex(cos, 0)
	st := complex(0, sin)
	snapshot := len(s.active)
	if snapshot >= compiledShardMin && s.workerLimit() > 1 {
		s.applySharded(row, ct, st, snapshot)
	} else {
		s.applySerial(row, ct, st, snapshot)
	}
	s.prune()
}

func (s *CompiledState) applySerial(row []int32, ct, st complex128, snapshot int) {
	amps, stamp := s.amps, s.stamp
	for k := 0; k < snapshot; k++ {
		i := s.active[k]
		pr := row[i]
		if pr == 0 {
			continue // fixed point
		}
		if pr > 0 {
			// i is the lower member; the partner's slot reads 0 when it is
			// outside the support, matching the map engine's missing-key read.
			j := pr - 1
			a, b := amps[i], amps[j]
			amps[i] = ct*a - st*b
			amps[j] = ct*b - st*a
			if stamp[j] != s.epoch {
				stamp[j] = s.epoch
				s.active = append(s.active, j)
			}
		} else {
			// i is the upper member; the pair is handled from the lower side
			// when that side is in the snapshot.
			j := -pr - 1
			if stamp[j] == s.epoch {
				continue
			}
			b := amps[i]
			amps[j] = -st * b
			amps[i] = ct * b
			stamp[j] = s.epoch
			s.active = append(s.active, j)
		}
	}
}

// applySharded is the same pass over fixed-size snapshot chunks. It is
// race-free because pairs under one u are disjoint: every amps/stamp slot
// written during the pass belongs to exactly one pair, and that pair is
// processed by exactly one chunk (the upper-member branch reads only the
// partner's stamp — set before the pass when the partner is in the snapshot —
// before touching any amplitude). Newly activated indices collect in
// per-chunk buffers appended in chunk order, so the resulting active order —
// and every float in every later pass — is independent of the worker count.
func (s *CompiledState) applySharded(row []int32, ct, st complex128, snapshot int) {
	nChunks := (snapshot + compiledChunk - 1) / compiledChunk
	for len(s.chunkActs) < nChunks {
		s.chunkActs = append(s.chunkActs, make([]int32, 0, compiledChunk))
	}
	amps, stamp, epoch := s.amps, s.stamp, s.epoch
	snap := s.active[:snapshot]
	parallel.ForChunksWorkers(s.workerLimit(), snapshot, compiledChunk, func(lo, hi int) {
		buf := s.chunkActs[lo/compiledChunk][:0]
		for k := lo; k < hi; k++ {
			i := snap[k]
			pr := row[i]
			if pr == 0 {
				continue
			}
			if pr > 0 {
				j := pr - 1
				a, b := amps[i], amps[j]
				amps[i] = ct*a - st*b
				amps[j] = ct*b - st*a
				if stamp[j] != epoch {
					stamp[j] = epoch
					buf = append(buf, j)
				}
			} else {
				j := -pr - 1
				if stamp[j] == epoch {
					continue
				}
				b := amps[i]
				amps[j] = -st * b
				amps[i] = ct * b
				stamp[j] = epoch
				buf = append(buf, j)
			}
		}
		s.chunkActs[lo/compiledChunk] = buf
	})
	for ci := 0; ci < nChunks; ci++ {
		s.active = append(s.active, s.chunkActs[ci]...)
	}
}

// CollapseTransition adds to out the measured outcome of evolving every
// basis state of a mixture through scheduled operator op alone, given
// cos t and sin t: for each index x with weight w = in[x] ≠ 0, w·cos²t at x
// and w·sin²t at its partner, or w at x when x is a fixed point or op is
// all-zero. It equals Reset(x), ApplyTransitionCS and a merge of the
// surviving |amplitude|² for every such x in ascending order, bit for bit:
// from |x⟩ the rotation leaves ct·1 − st·0 = (cos t, 0) at x and
// ct·0 − st·1 = (±0, −sin t) at the partner, on either branch of the
// kernel, so the products by exact zeros and ones drop out and |·|² is
// cos·cos and sin·sin. The prune keeps an amplitude unless its |·|² is
// below sparseEps² — a NaN is kept — and the decision depends only on the
// angle, so it is taken once. Visiting inputs in ascending order makes
// every out slot accumulate in the merge loop's order.
func (cs *CompiledSpace) CollapseTransition(op int, cos, sin float64, in, out []float64) {
	r := cs.opRow[op]
	if r < 0 {
		for x, w := range in {
			if w != 0 {
				out[x] += w
			}
		}
		return
	}
	row := cs.partners[r]
	c2, s2 := cos*cos, sin*sin
	keepSelf := !(c2 < sparseEps*sparseEps)
	keepPartner := !(s2 < sparseEps*sparseEps)
	for x, w := range in {
		if w == 0 {
			continue
		}
		pr := row[x]
		if pr == 0 {
			out[x] += w
			continue
		}
		j := pr - 1
		if pr < 0 {
			j = -pr - 1
		}
		if keepSelf {
			out[x] += w * c2
		}
		if keepPartner {
			out[j] += w * s2
		}
	}
}

// prune drops active entries below the same sparseEps threshold as the map
// engine, zeroing and un-stamping their slots so a later activation starts
// from a clean 0 — this keeps the stored support exactly equal to Sparse's
// key set after every operator.
func (s *CompiledState) prune() {
	amps, stamp := s.amps, s.stamp
	w := 0
	for _, i := range s.active {
		a := amps[i]
		if real(a)*real(a)+imag(a)*imag(a) < sparseEps*sparseEps {
			amps[i] = 0
			stamp[i] = 0
			continue
		}
		s.active[w] = i
		w++
	}
	s.active = s.active[:w]
}

// Active returns the active indices in activation order, each exactly
// once. The slice aliases internal state: it is valid until the next
// mutating call.
func (s *CompiledState) Active() []int32 { return s.active }

// SortedActive sorts the active list ascending in place and returns it.
// Ascending dense index is ascending bitvec.Compare order by construction,
// so iteration over SortedActive visits the support in exactly the order the
// map engine's Support()/sortedDistKeys produce. The returned slice aliases
// internal state: it is valid until the next mutating call.
func (s *CompiledState) SortedActive() []int32 {
	slices.Sort(s.active)
	return s.active
}

// Support returns the active basis states in deterministic (ascending)
// order, matching Sparse.Support.
func (s *CompiledState) Support() []bitvec.Vec {
	idx := s.SortedActive()
	out := make([]bitvec.Vec, len(idx))
	for k, i := range idx {
		out[k] = s.space.states[i]
	}
	return out
}

// Norm returns ⟨ψ|ψ⟩, accumulated in sorted support order for cross-run
// determinism.
func (s *CompiledState) Norm() float64 {
	t := 0.0
	for _, i := range s.SortedActive() {
		a := s.amps[i]
		t += real(a)*real(a) + imag(a)*imag(a)
	}
	return t
}

// SampleCounts draws shots measurements and accumulates them into counts
// (len == Space().Size()), indexed by dense state index. The CDF
// construction, the up-front sorted uniform draws, and the single merge pass
// are the same algorithm — and the same rng consumption — as Sparse.Sample,
// so for equal amplitudes the counts are identical. Scratch buffers are
// reused across calls.
func (s *CompiledState) SampleCounts(rng *rand.Rand, shots int, counts []int) {
	keys := s.SortedActive()
	if cap(s.cdf) < len(keys) {
		s.cdf = make([]float64, len(keys))
	}
	cdf := s.cdf[:len(keys)]
	acc := 0.0
	for i, k := range keys {
		a := s.amps[k]
		acc += real(a)*real(a) + imag(a)*imag(a)
		cdf[i] = acc
	}
	if len(keys) == 0 || shots <= 0 {
		return
	}
	if cap(s.draws) < shots {
		s.draws = make([]float64, shots)
	}
	draws := s.draws[:shots]
	for i := range draws {
		draws[i] = rng.Float64() * acc
	}
	sort.Float64s(draws)
	idx, pending := 0, 0
	for _, r := range draws {
		for idx < len(keys)-1 && cdf[idx] < r {
			if pending > 0 {
				counts[keys[idx]] += pending
				pending = 0
			}
			idx++
		}
		pending++
	}
	counts[keys[idx]] += pending
}

// Sample draws shots measurements as a basis-state count map, bit-identical
// to Sparse.Sample on an equal state (same draws, same cell boundaries).
func (s *CompiledState) Sample(rng *rand.Rand, shots int) map[bitvec.Vec]int {
	keys := s.SortedActive()
	if cap(s.cdf) < len(keys) {
		s.cdf = make([]float64, len(keys))
	}
	cdf := s.cdf[:len(keys)]
	acc := 0.0
	for i, k := range keys {
		a := s.amps[k]
		acc += real(a)*real(a) + imag(a)*imag(a)
		cdf[i] = acc
	}
	out := make(map[bitvec.Vec]int)
	if len(keys) == 0 || shots <= 0 {
		return out
	}
	draws := make([]float64, shots)
	for i := range draws {
		draws[i] = rng.Float64() * acc
	}
	sort.Float64s(draws)
	idx, pending := 0, 0
	for _, r := range draws {
		for idx < len(keys)-1 && cdf[idx] < r {
			if pending > 0 {
				out[s.space.states[keys[idx]]] += pending
				pending = 0
			}
			idx++
		}
		pending++
	}
	out[s.space.states[keys[idx]]] += pending
	return out
}
