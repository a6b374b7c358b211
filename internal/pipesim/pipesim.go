// Package pipesim is a cycle-level simulator of the out-of-order execution
// engine of Intel Core CPUs (Figure 1 of the paper). It stands in for the
// real hardware in this reproduction: the measurement harness (package
// measure) runs generated microbenchmark code on it and reads simulated
// performance counters (core cycles and µops dispatched per port), which is
// exactly the interface the paper's algorithms use on silicon.
//
// The simulator models the mechanisms the characterization algorithms have to
// cope with:
//
//   - a front end that issues up to IssueWidth µops per cycle, in order;
//   - register renaming (no false WAW/WAR dependencies), with move
//     elimination and zero-idiom handling in the rename stage;
//   - a finite unified scheduler that dispatches the oldest ready µops to
//     execution ports, at most one µop per port per cycle;
//   - per-µop latencies, including different latencies to different outputs;
//   - individual status-flag dependencies and partial-register merges;
//   - load latency, store-address/store-data µops and memory dependencies;
//   - a non-pipelined divider unit with value-dependent occupancy;
//   - bypass delays between the vector-integer and floating-point domains;
//   - SSE/AVX transition penalties.
//
// Because the harness executes the simulator once per variant per copy count
// per repetition across the whole ISA, Run is the hot path of every
// characterization run. Its implementation is allocation-free in steady
// state: dynamic µops and renamed values live in per-Machine arenas that are
// reset (not freed) between runs, the rename scoreboard is a flat array
// keyed by register family and status flag, and per-µop port sets are
// precomputed bitmasks. Dispatch is event-driven: each renamed value keeps a
// wake-up list of the µops waiting on it, a µop enters the ready queue only
// when its last input's ready time arrives, and the per-cycle dispatch walk
// touches ready µops only (never the whole scheduler window). A Machine
// consequently carries mutable per-run
// state and must not be used from multiple goroutines concurrently; use
// Clone to obtain independent Machines for concurrent workers.
//
//uopslint:deterministic
//uopslint:arena
package pipesim

import (
	"fmt"
	"math/bits"
	"slices"

	"uopsinfo/internal/asmgen"
	"uopsinfo/internal/isa"
	"uopsinfo/internal/uarch"
)

// Version is the behavioural revision of the simulator. It is the version
// fingerprint of the pipesim measurement backend and is thereby folded into
// persistent cache keys: bump it whenever a change alters the simulated
// counter values, so results measured on the old behaviour read as misses
// instead of being served stale. (The arena/event-list rewrite of the hot
// path is behaviour-preserving, so it did not bump this.)
const Version = "1"

// DividerValues selects whether operand values for divider-based instructions
// are "fast" or "slow" (Section 5.2.5: the latency and throughput of
// divisions depend on the operand values). The microbenchmark generator pins
// operand values accordingly; the simulator, which does not track actual data
// values, is told which regime the pinned values are in.
type DividerValues int

// Divider value regimes.
const (
	// SlowDividerValues corresponds to operand values that lead to the high
	// (worst-case) latency.
	SlowDividerValues DividerValues = iota
	// FastDividerValues corresponds to operand values that lead to the low
	// latency.
	FastDividerValues
)

// Counters is the simulated performance-counter state after running a code
// sequence: elapsed core cycles and the number of µops dispatched to each
// port (Section 3.3).
type Counters struct {
	Cycles     int
	PortUops   []int
	TotalUops  int // µops dispatched to an execution port
	IssuedUops int // all µops, including those handled at rename
	ElimUops   int // µops eliminated at rename (moves, zero idioms, NOPs)
}

// Clone returns a deep copy of the counters.
func (c Counters) Clone() Counters {
	out := c
	out.PortUops = append([]int(nil), c.PortUops...)
	return out
}

// Sub returns c - o element-wise (used by the measurement protocol to remove
// harness overhead).
func (c Counters) Sub(o Counters) Counters {
	out := c.Clone()
	out.Cycles -= o.Cycles
	out.TotalUops -= o.TotalUops
	out.IssuedUops -= o.IssuedUops
	out.ElimUops -= o.ElimUops
	for i := range out.PortUops {
		if i < len(o.PortUops) {
			out.PortUops[i] -= o.PortUops[i]
		}
	}
	return out
}

// Config controls simulation parameters that are not part of the
// per-generation profile.
type Config struct {
	// SchedulerSize is the number of entries in the unified reservation
	// station. Zero selects the default of 60 entries.
	//
	// The window counts µops that have issued but not yet dispatched to an
	// execution port: a µop occupies its entry from the cycle it issues
	// until the end of the cycle in which it dispatches, and the freed entry
	// can be refilled by the front end in the next cycle. µops handled at
	// rename (eliminated moves, zero idioms, NOPs) never occupy an entry.
	// TestSchedulerSizeLimitsWindow pins these semantics.
	SchedulerSize int
	// MaxCycles aborts runaway simulations. Zero selects a large default.
	MaxCycles int
	// DividerValues selects the operand-value regime for divider-based
	// instructions.
	DividerValues DividerValues
}

// maxPorts bounds the per-port bitmasks and load tables; all modelled
// generations have 6 or 8 execution ports.
const maxPorts = 16

// idx32 is the single funnel for narrowing wide integers into the int32
// arena indices and cycle counts used throughout the simulator. In race
// builds assert32 panics on values outside the int32 range; in production
// builds it is empty and the funnel compiles down to a bare conversion.
func idx32(v int) int32 {
	assert32(v)
	return int32(v)
}

// numFlagVals is the size of the status-flag scoreboard.
const numFlagVals = int(isa.NumFlags)

// dynVal is one renamed value (a physical-register-like entity). Values live
// in the Machine's val arena and are referenced by index. waiters heads the
// value's wake-up list: the µops that issued before the value was known and
// must be notified (pending count decremented, readyAt folded in) when the
// producer dispatches. The list is linked through the Machine's waiter-node
// arena and consumed exactly once.
type dynVal struct {
	ready   int32 // cycle the value becomes available
	waiters int32 // head of the wake-up list (waiter-node index, -1 = none)
	known   bool  // producer has dispatched (or the value is live-in)
	domain  isa.Domain
}

// dynUop is one dynamic µop instance. µops live in the Machine's µop arena;
// their read and write value lists are [start,end) segments of the shared
// readIdx/writeIdx backing slices (writeLat is parallel to writeIdx).
// pending and readyAt are the wake-up bookkeeping, maintained from issue
// onward: pending counts read values whose producer has not yet dispatched,
// and readyAt accumulates the latest input-ready time seen so far (including
// the bypass delay for µops that execute on a port; eliminated µops complete
// at rename and take no bypass). A µop enters the dispatch ready queue only
// when pending reaches zero and the cycle reaches readyAt.
type dynUop struct {
	rdStart, rdEnd int32
	wrStart, wrEnd int32
	pending        int32
	readyAt        int32
	portMask       uint16 // allowed execution ports as a bitmask
	eliminated     bool
	divider        bool
	domain         isa.Domain
	divOcc         int32
}

// Machine simulates one microarchitecture generation.
//
// A Machine owns reusable per-run state (arenas, scoreboards, scheduler
// queues) so that steady-state Run calls perform no heap allocations beyond
// the returned Counters.PortUops slice. It is therefore NOT safe for
// concurrent use: each goroutine needs its own Machine (see Clone).
type Machine struct {
	arch *uarch.Arch
	cfg  Config

	// perf memoizes the Arch.Perf lookup per variant, keyed by identity.
	// InstrPerf values are immutable, so sharing the pointers is safe. The
	// cache persists across runs: with the measurement protocol running the
	// same short sequence at two copy counts times repetitions, every
	// instruction after the first occurrence hits here instead of the
	// Arch-level cache.
	perf map[*isa.Instr]*uarch.InstrPerf

	// Arenas, reset (not freed) between runs.
	vals     []dynVal
	uops     []dynUop
	readIdx  []int32 // backing store for dynUop read segments
	writeIdx []int32 // backing store for dynUop write segments
	writeLat []int32 // latency per written value, parallel to writeIdx

	// Rename scoreboard: latest renamed value per architectural resource.
	// Register families and status flags are flat arrays (-1 = live-in not
	// yet materialized). Memory addresses are arbitrary: memBoard maps each
	// address to its slot in memVals, which lists the memory entries in
	// insertion order; the map is cleared — not reallocated — between runs.
	regBoard  [isa.NumRegs]int32
	flagBoard [numFlagVals]int32
	memBoard  map[uint64]int32
	memVals   []int32
	produced  [isa.NumRegs]bool

	// Rename replication (see renameRepeated): prefix is the scratch table
	// of the period search, the snap* fields hold the scoreboards at the
	// previous unit boundary, and replicated counts the units the current
	// Run appended by copying instead of renaming.
	prefix     []int32
	snapReg    [isa.NumRegs]int32
	snapFlag   [numFlagVals]int32
	snapMem    []int32
	replicated int

	// Per-instruction temporaries, validity-tracked by epoch so no clearing
	// is needed between instructions.
	tempVal   []int32
	tempEpoch []uint64
	tempGen   uint64

	// Wake-up and scheduler state reused across runs. wnUop/wnNext are the
	// waiter-node arena (one node per read of a not-yet-known value, linked
	// into the value's wake-up list); wakeHeap is a binary min-heap of
	// (readyAt, µop) pairs packed into uint64s; readyQ holds the µops whose
	// wake-up time has arrived, sorted by µop index (program order), with
	// readyScratch/arrivals as its merge buffers; elimReady queues
	// rename-handled µops whose inputs are all known.
	wnUop        []int32
	wnNext       []int32
	wakeHeap     []uint64
	readyQ       []int32
	readyScratch []int32
	arrivals     []int32
	elimReady    []int32
	portLoad     [maxPorts]int32

	initialized bool
}

// New returns a Machine for the given microarchitecture with default
// configuration.
func New(arch *uarch.Arch) *Machine {
	return NewWithConfig(arch, Config{})
}

// NewWithConfig returns a Machine with explicit configuration.
func NewWithConfig(arch *uarch.Arch, cfg Config) *Machine {
	if cfg.SchedulerSize <= 0 {
		cfg.SchedulerSize = 60
	}
	if cfg.MaxCycles <= 0 {
		cfg.MaxCycles = 5_000_000
	}
	// Value-ready times are stored as int32 in the arena; cap the cycle
	// horizon well below that range so they cannot wrap. A simulation this
	// long would never finish anyway — MaxCycles exists to abort runaways.
	if cfg.MaxCycles > 1<<30 {
		cfg.MaxCycles = 1 << 30
	}
	if arch.NumPorts() > maxPorts {
		// The dispatch stage represents port sets as uint16 bitmasks;
		// silently dropping ports would turn their µops into phantom
		// deadlocks, so fail loudly if a generation ever outgrows the mask.
		panic(fmt.Sprintf("pipesim: %s has %d ports, max supported is %d",
			arch.Name(), arch.NumPorts(), maxPorts))
	}
	return &Machine{arch: arch, cfg: cfg}
}

// Arch returns the microarchitecture the machine simulates.
func (m *Machine) Arch() *uarch.Arch { return m.arch }

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// Clone returns an independent Machine with the same microarchitecture and
// configuration. The clone shares only the (internally synchronized) Arch;
// the arenas, scoreboards and the divider-value regime are per-Machine, so
// clones can run on different goroutines without synchronization.
func (m *Machine) Clone() *Machine {
	return NewWithConfig(m.arch, m.cfg)
}

// SetDividerValues selects the operand-value regime for divider-based
// instructions in subsequent runs.
func (m *Machine) SetDividerValues(v DividerValues) { m.cfg.DividerValues = v }

// Reset clears all per-run state while keeping the arena capacity, so the
// next Run starts from an idle pipeline without reallocating. Run calls it
// automatically; it is exported so tests (and callers that want to verify
// the reuse contract) can exercise it directly. Under race-enabled builds,
// Run additionally verifies the reset invariants, which guards against a
// future slab being added to the Machine without being wired into Reset —
// the failure mode that would leak renamed values across runs.
func (m *Machine) Reset() {
	if !m.initialized {
		m.memBoard = make(map[uint64]int32)
		m.perf = make(map[*isa.Instr]*uarch.InstrPerf)
		m.initialized = true
	}
	m.vals = m.vals[:0]
	m.uops = m.uops[:0]
	m.readIdx = m.readIdx[:0]
	m.writeIdx = m.writeIdx[:0]
	m.writeLat = m.writeLat[:0]
	for i := range m.regBoard {
		m.regBoard[i] = -1
	}
	for i := range m.flagBoard {
		m.flagBoard[i] = -1
	}
	clear(m.memBoard)
	m.memVals = m.memVals[:0]
	for i := range m.produced {
		m.produced[i] = false
	}
	m.replicated = 0
	m.wnUop = m.wnUop[:0]
	m.wnNext = m.wnNext[:0]
	m.wakeHeap = m.wakeHeap[:0]
	m.readyQ = m.readyQ[:0]
	m.readyScratch = m.readyScratch[:0]
	m.arrivals = m.arrivals[:0]
	m.elimReady = m.elimReady[:0]
	m.portLoad = [maxPorts]int32{}
	// tempGen is deliberately NOT reset: temp slots are validated by epoch,
	// and the monotonically increasing generation keeps slots from a
	// previous run invalid without clearing them.
}

// checkResetInvariants panics if any per-run state survived Reset. It is
// called from Run only under race-enabled builds (see raceEnabled), where
// the differential and determinism tests run; a leak here means a renamed
// value from a previous Run could alias into the current one.
func (m *Machine) checkResetInvariants() {
	if len(m.vals) != 0 || len(m.uops) != 0 || len(m.readIdx) != 0 ||
		len(m.writeIdx) != 0 || len(m.writeLat) != 0 ||
		len(m.wnUop) != 0 || len(m.wnNext) != 0 || len(m.wakeHeap) != 0 ||
		len(m.readyQ) != 0 || len(m.arrivals) != 0 || len(m.elimReady) != 0 ||
		len(m.memBoard) != 0 || len(m.memVals) != 0 || m.replicated != 0 {
		panic("pipesim: Reset left arena or queue state behind")
	}
	for i := range m.regBoard {
		if m.regBoard[i] != -1 {
			panic(fmt.Sprintf("pipesim: Reset left register scoreboard entry %s", isa.Reg(i)))
		}
	}
	for i := range m.flagBoard {
		if m.flagBoard[i] != -1 {
			panic(fmt.Sprintf("pipesim: Reset left flag scoreboard entry %s", isa.Flag(i)))
		}
	}
	for i := range m.produced {
		if m.produced[i] {
			panic(fmt.Sprintf("pipesim: Reset left produced mark for %s", isa.Reg(i)))
		}
	}
	for p, l := range m.portLoad {
		if l != 0 {
			panic(fmt.Sprintf("pipesim: Reset left load on port %d", p))
		}
	}
}

// Run simulates the code sequence starting from an idle pipeline with all
// inputs ready, and returns the performance counters.
func (m *Machine) Run(code asmgen.Sequence) (Counters, error) {
	m.Reset()
	if raceEnabled {
		m.checkResetInvariants()
	}
	penalty := m.renameRepeated(code)
	c := m.execute()
	c.Cycles += penalty
	return c, nil
}

// MustRun is like Run but panics on error (for code generated from validated
// instruction sets).
func (m *Machine) MustRun(code asmgen.Sequence) Counters {
	c, err := m.Run(code)
	if err != nil {
		panic(err)
	}
	return c
}

// perfFor returns the cached performance description for a variant,
// consulting the Arch only on the first occurrence per Machine.
func (m *Machine) perfFor(in *isa.Instr) *uarch.InstrPerf {
	if p, ok := m.perf[in]; ok {
		return p
	}
	p := m.arch.Perf(in)
	m.perf[in] = p
	return p
}

// newVal appends a renamed value to the arena and returns its index.
func (m *Machine) newVal(ready int32, known bool, dom isa.Domain) int32 {
	idx := idx32(len(m.vals))
	m.vals = append(m.vals, dynVal{ready: ready, waiters: -1, known: known, domain: dom})
	return idx
}

// liveInReg returns the latest renamed value of r's register family,
// materializing a ready live-in value on first touch.
func (m *Machine) liveInReg(r isa.Reg, dom isa.Domain) int32 {
	fam := r.Family()
	if v := m.regBoard[fam]; v >= 0 {
		return v
	}
	v := m.newVal(0, true, dom)
	m.regBoard[fam] = v
	return v
}

// liveInFlag is liveInReg for a single status flag.
func (m *Machine) liveInFlag(f isa.Flag) int32 {
	if v := m.flagBoard[f]; v >= 0 {
		return v
	}
	v := m.newVal(0, true, isa.DomainInt)
	m.flagBoard[f] = v
	return v
}

// liveInMem is liveInReg for a renamed memory slot.
func (m *Machine) liveInMem(addr uint64, dom isa.Domain) int32 {
	if slot, ok := m.memBoard[addr]; ok {
		return m.memVals[slot]
	}
	v := m.newVal(0, true, dom)
	m.memBoard[addr] = idx32(len(m.memVals))
	m.memVals = append(m.memVals, v)
	return v
}

// setMem records v as the latest renamed value of the memory slot at addr.
func (m *Machine) setMem(addr uint64, v int32) {
	if slot, ok := m.memBoard[addr]; ok {
		m.memVals[slot] = v
		return
	}
	m.memBoard[addr] = idx32(len(m.memVals))
	m.memVals = append(m.memVals, v)
}

// growTemps ensures the temp slot tables cover index idx.
func (m *Machine) growTemps(idx int) {
	for len(m.tempVal) <= idx {
		m.tempVal = append(m.tempVal, -1)
		m.tempEpoch = append(m.tempEpoch, 0)
	}
}

// appendWrite records one written value (and its latency) for the µop under
// construction.
func (m *Machine) appendWrite(v, lat int32) {
	m.writeIdx = append(m.writeIdx, v)
	m.writeLat = append(m.writeLat, lat)
}

// renameState is the program-order state rename carries from instruction to
// instruction besides the scoreboards: the accumulated SSE/AVX transition
// penalty, whether the upper YMM state is dirty, and the count of moves
// inside dependent chains (every third one is eliminated).
type renameState struct {
	penalty        int
	avxDirty       bool
	depMoveCounter int
}

// rename performs the program-order pre-pass: it decomposes every instruction
// into dynamic µops, resolves register/flag/memory dependencies to renamed
// values, applies zero-idiom and same-register special cases, and computes
// the SSE/AVX transition penalty, which it returns. All state it builds lives
// in the Machine's arenas; steady-state calls allocate nothing.
func (m *Machine) rename(code asmgen.Sequence) int {
	var st renameState
	for _, inst := range code {
		m.renameInst(inst, &st)
	}
	return st.penalty
}

// minUnitLen is the smallest number of instructions renameRepeated treats as
// one unit, so the per-unit boundary check stays cheap next to the renaming
// it can save.
const minUnitLen = 8

// renameRepeated is rename for sequences that repeat one instruction pattern,
// as the measurement protocol's n-copy runs do. It splits the sequence into
// units: the smallest multiple of the shortest period (by instruction
// identity) with at least minUnitLen instructions. Units are renamed one at a
// time until renaming one more would provably yield the last unit again with
// its fresh values shifted by a constant; every remaining whole unit is then
// appended by copying, and only the partial tail is renamed normally. The
// arenas, scoreboards and penalty come out element for element as rename
// would build them.
//
// The exactness condition, checked at unit boundary k >= 2 with V_k the
// value arena length there and Δ = V_k - V_{k-1} the values the last unit
// created: every scoreboard entry (registers, flags, memory slots in
// insertion order) is either unchanged since boundary k-1 and older than
// V_{k-2} (or unset), or held a value x >= V_{k-2} there and holds x+Δ now;
// and the last unit moved the dependent-move counter by a multiple of 3.
// Unit k read only scoreboard values of boundary k-1 and values it created
// itself, and renaming commutes with relabelling values, so unit k+1 is unit
// k with every value index >= V_{k-2} moved by Δ, and it leaves the
// scoreboards in the same relation again; by induction unit k+j is unit k
// moved by j*Δ. The rest of the rename state needs no check because it is
// constant from boundary 1 on: which register families an instruction
// writes does not depend on the state, so the produced marks are complete
// after one unit, and each instruction sets, clears or keeps the AVX-dirty
// flag regardless of its value, so a unit either leaves the flag alone or
// always ends it the same way.
func (m *Machine) renameRepeated(code asmgen.Sequence) int {
	if len(code) < 3*minUnitLen {
		return m.rename(code)
	}
	unit := m.unitLen(code)
	units := len(code) / unit
	if units < 3 {
		return m.rename(code)
	}
	var st renameState
	var prev, cur unitMark // boundaries k-2 and k-1
	for k := 1; k <= units; k++ {
		for _, inst := range code[(k-1)*unit : k*unit] {
			m.renameInst(inst, &st)
		}
		next := m.markUnit(&st)
		if k >= 2 && k < units && (next.depMoves-cur.depMoves)%3 == 0 &&
			m.renameShifted(idx32(prev.vals), idx32(next.vals-cur.vals)) {
			m.replicate(&st, idx32(prev.vals), cur, next, units-k)
			break
		}
		m.snapshotRename()
		prev, cur = cur, next
	}
	for _, inst := range code[units*unit:] {
		m.renameInst(inst, &st)
	}
	return st.penalty
}

// unitLen returns the replication unit length of code: the smallest multiple
// of its shortest period by instruction identity with at least minUnitLen
// instructions. The period comes from the prefix function (the border table
// of Knuth-Morris-Pratt) over the instruction pointers.
func (m *Machine) unitLen(code asmgen.Sequence) int {
	pi := append(m.prefix[:0], 0)
	k := 0
	for i := 1; i < len(code); i++ {
		for k > 0 && code[i] != code[k] {
			k = int(pi[k-1])
		}
		if code[i] == code[k] {
			k++
		}
		pi = append(pi, idx32(k))
	}
	m.prefix = pi
	period := len(code) - k
	return period * ((minUnitLen + period - 1) / period)
}

// unitMark records the arena lengths and the cumulative rename counters at a
// unit boundary.
type unitMark struct {
	vals, uops, reads, writes int
	penalty, depMoves         int
}

func (m *Machine) markUnit(st *renameState) unitMark {
	return unitMark{vals: len(m.vals), uops: len(m.uops), reads: len(m.readIdx),
		writes: len(m.writeIdx), penalty: st.penalty, depMoves: st.depMoveCounter}
}

// snapshotRename saves the scoreboards renameShifted compares against.
func (m *Machine) snapshotRename() {
	m.snapReg = m.regBoard
	m.snapFlag = m.flagBoard
	m.snapMem = append(m.snapMem[:0], m.memVals...)
}

// renameShifted reports whether the scoreboards moved from the snapshot by
// exactly the shift renameRepeated's exactness condition describes: entries
// below lim unchanged, entries at or above lim advanced by delta.
func (m *Machine) renameShifted(lim, delta int32) bool {
	return len(m.memVals) == len(m.snapMem) &&
		shiftedBy(m.snapReg[:], m.regBoard[:], lim, delta) &&
		shiftedBy(m.snapFlag[:], m.flagBoard[:], lim, delta) &&
		shiftedBy(m.snapMem, m.memVals, lim, delta)
}

// shiftedBy reports whether every scoreboard entry went from old[i] to now[i]
// under the shift x -> x+delta for x >= lim (an unset entry, -1, must stay
// unset).
func shiftedBy(old, now []int32, lim, delta int32) bool {
	for i, v := range now {
		if o := old[i]; o < lim && v != o || o >= lim && v != o+delta {
			return false
		}
	}
	return true
}

// appendShifted appends src to dst with every value index at or above lim
// moved by shift.
func appendShifted(dst, src []int32, lim, shift int32) []int32 {
	for _, v := range src {
		if v >= lim {
			v += shift
		}
		dst = append(dst, v)
	}
	return dst
}

// replicate appends times copies of the unit renamed between boundaries from
// and to, moving every value index at or above lim by j*Δ in copy j and the
// µop segment offsets by j times the unit's read and write counts, then
// advances the scoreboards and the penalty to the state after the last copy.
// The dependent-move counter is used modulo 3 only, and each copy moves it
// by a multiple of 3, so it stays as it is.
func (m *Machine) replicate(st *renameState, lim int32, from, to unitMark, times int) {
	nv, nu := to.vals-from.vals, to.uops-from.uops
	nr, nw := to.reads-from.reads, to.writes-from.writes
	m.vals = slices.Grow(m.vals, times*nv)
	m.uops = slices.Grow(m.uops, times*nu)
	m.readIdx = slices.Grow(m.readIdx, times*nr)
	m.writeIdx = slices.Grow(m.writeIdx, times*nw)
	m.writeLat = slices.Grow(m.writeLat, times*nw)
	for j := 1; j <= times; j++ {
		shift, rdOff, wrOff := idx32(j*nv), idx32(j*nr), idx32(j*nw)
		m.vals = append(m.vals, m.vals[from.vals:to.vals]...)
		for _, u := range m.uops[from.uops:to.uops] {
			u.rdStart += rdOff
			u.rdEnd += rdOff
			u.wrStart += wrOff
			u.wrEnd += wrOff
			m.uops = append(m.uops, u)
		}
		m.readIdx = appendShifted(m.readIdx, m.readIdx[from.reads:to.reads], lim, shift)
		m.writeIdx = appendShifted(m.writeIdx, m.writeIdx[from.writes:to.writes], lim, shift)
		m.writeLat = append(m.writeLat, m.writeLat[from.writes:to.writes]...)
	}
	shift := idx32(times * nv)
	for _, board := range [][]int32{m.regBoard[:], m.flagBoard[:], m.memVals} {
		for i, v := range board {
			if v >= lim {
				board[i] = v + shift
			}
		}
	}
	st.penalty += times * (to.penalty - from.penalty)
	m.replicated = times
}

// renameInst renames one instruction in program order (see rename).
func (m *Machine) renameInst(inst *asmgen.Inst, st *renameState) {
	numPorts := m.arch.NumPorts()
	in := inst.Variant
	perf := m.perfFor(in)

	// SSE/AVX transition penalty (Section 5.1.1 explains why blocking
	// instructions are chosen per extension family to avoid this).
	if p := m.arch.SSEAVXPenalty(); p > 0 {
		switch {
		case in.Extension.IsAVX():
			in.ForEachExplicit(func(_ int, op *isa.Operand) bool {
				if op.Class == isa.ClassYMM {
					st.avxDirty = true
				}
				return true
			})
		case in.Extension.IsSSE() && st.avxDirty:
			st.penalty += p
			st.avxDirty = false
		}
		if in.Mnemonic == "VZEROUPPER" || in.Mnemonic == "VZEROALL" {
			st.avxDirty = false
		}
	}

	// Same-register override (e.g. SHLD on Skylake, Section 7.3.2).
	sameReg, regCount := allExplicitRegsEqual(inst)
	if perf.SameRegOverride != nil && sameReg && regCount >= 2 {
		perf = perf.SameRegOverride
	}
	zeroIdiom := perf.ZeroIdiom && sameReg && regCount >= 2

	// Move elimination: a register-to-register move whose source is not
	// produced inside the measured code is always eliminated; inside a
	// dependent chain roughly every third move is eliminated (the
	// behaviour the paper reports in Section 5.2.1).
	moveElim := false
	if perf.MoveElim && isRegRegMove(inst) {
		srcOp := inst.Ops[1]
		if !m.produced[srcOp.Reg.Family()] {
			moveElim = true
		} else {
			st.depMoveCounter++
			moveElim = st.depMoveCounter%3 == 0
		}
	}

	domain := in.Domain
	m.tempGen++ // invalidates the previous instruction's temp slots

	for ui := range perf.Uops {
		spec := &perf.Uops[ui]
		uix := len(m.uops)
		m.uops = append(m.uops, dynUop{
			divider: spec.Divider,
			divOcc:  idx32(spec.DivOccupancy),
			domain:  domain,
		})
		du := &m.uops[uix]
		mask := portMaskFor(spec.Ports, numPorts)
		if len(spec.Ports) == 0 {
			du.eliminated = true
		}
		if zeroIdiom && perf.ZeroIdiomElim {
			du.eliminated = true
			mask = 0
		}
		if moveElim {
			du.eliminated = true
			mask = 0
		}
		du.portMask = mask
		if spec.Divider && m.cfg.DividerValues == FastDividerValues {
			du.divOcc = idx32(perf.DivOccupancyLowValues)
		}

		// Resolve reads. Store-address µops only depend on the address
		// registers of the memory operand, not on the previous memory
		// contents.
		du.rdStart = idx32(len(m.readIdx))
		for _, ref := range spec.Reads {
			if zeroIdiom && ref.Kind == uarch.ValOperand && in.Operands[ref.Index].Kind == isa.OpReg {
				continue // the idiom breaks the dependency on the register
			}
			m.resolveReads(inst, ref, spec.StoreAddr)
		}
		// Resolve writes (partial-register merges append extra reads).
		du.wrStart = idx32(len(m.writeIdx))
		for wi, ref := range spec.Writes {
			lat := spec.LatencyTo(wi)
			if spec.Load {
				lat += m.arch.LoadLatency()
			}
			if spec.Divider && m.cfg.DividerValues == FastDividerValues && perf.LatencyLowValues > 0 {
				lat = perf.LatencyLowValues
			}
			if lat < 1 && !du.eliminated {
				lat = 1
			}
			m.resolveWrites(inst, ref, domain, idx32(lat))
			if ref.Kind == uarch.ValOperand && ref.Index < len(in.Operands) {
				op := in.Operands[ref.Index]
				if op.Kind == isa.OpReg {
					if r := inst.OperandFor(ref.Index).Reg; r != isa.RegNone {
						m.produced[r.Family()] = true
					}
				}
			}
		}
		du.rdEnd = idx32(len(m.readIdx))
		du.wrEnd = idx32(len(m.writeIdx))

		// A µop never waits for values it produces itself (this can
		// otherwise happen through partial-register merge reads when two
		// written operands alias the same register).
		if du.wrEnd > du.wrStart && du.rdEnd > du.rdStart {
			kept := du.rdStart
			for ri := du.rdStart; ri < du.rdEnd; ri++ {
				v := m.readIdx[ri]
				own := false
				for wi := du.wrStart; wi < du.wrEnd; wi++ {
					if m.writeIdx[wi] == v {
						own = true
						break
					}
				}
				if !own {
					m.readIdx[kept] = v
					kept++
				}
			}
			du.rdEnd = kept
			m.readIdx = m.readIdx[:kept]
		}
	}
}

// resolveReads appends the renamed values a µop read reference consumes to
// the current µop's read segment. addrOnly restricts memory operands to
// their address registers (used for store-address µops, which do not consume
// the previous memory contents).
func (m *Machine) resolveReads(inst *asmgen.Inst, ref uarch.ValRef, addrOnly bool) {
	if ref.Kind == uarch.ValTemp {
		if ref.Index < 0 {
			// Defensive: a read of an impossible temp is treated as ready.
			m.readIdx = append(m.readIdx, m.newVal(0, true, isa.DomainInt))
			return
		}
		m.growTemps(ref.Index)
		if m.tempEpoch[ref.Index] != m.tempGen {
			// A read of a temp that has no producer (defensive): treat as
			// ready.
			m.tempVal[ref.Index] = m.newVal(0, true, isa.DomainInt)
			m.tempEpoch[ref.Index] = m.tempGen
		}
		m.readIdx = append(m.readIdx, m.tempVal[ref.Index])
		return
	}
	in := inst.Variant
	if ref.Index < 0 || ref.Index >= len(in.Operands) {
		return
	}
	spec := &in.Operands[ref.Index]
	conc := inst.OperandFor(ref.Index)
	switch spec.Kind {
	case isa.OpReg:
		r := conc.Reg
		if r == isa.RegNone {
			return
		}
		m.readIdx = append(m.readIdx, m.liveInReg(r, in.Domain))
	case isa.OpMem:
		if conc.Mem == nil {
			return
		}
		if addrOnly {
			m.readIdx = append(m.readIdx, m.liveInReg(conc.Mem.Base, isa.DomainInt))
			return
		}
		// A memory read depends on the address register and on the latest
		// store to the same address (store-to-load forwarding resolves
		// through the renamed memory value).
		m.readIdx = append(m.readIdx, m.liveInReg(conc.Mem.Base, isa.DomainInt))
		m.readIdx = append(m.readIdx, m.liveInMem(conc.Mem.Addr, in.Domain))
	case isa.OpFlags:
		for f := isa.Flag(0); f < isa.NumFlags; f++ {
			if spec.ReadFlags.Has(f) {
				m.readIdx = append(m.readIdx, m.liveInFlag(f))
			}
		}
	}
}

// resolveWrites appends freshly renamed values for a µop write reference to
// the current µop's write segment (with latency lat), and appends any reads
// implied by partial-register merges to the read segment.
func (m *Machine) resolveWrites(inst *asmgen.Inst, ref uarch.ValRef, domain isa.Domain, lat int32) {
	if ref.Kind == uarch.ValTemp {
		v := m.newVal(0, false, domain)
		if ref.Index >= 0 {
			m.growTemps(ref.Index)
			m.tempVal[ref.Index] = v
			m.tempEpoch[ref.Index] = m.tempGen
		}
		m.appendWrite(v, lat)
		return
	}
	in := inst.Variant
	if ref.Index < 0 || ref.Index >= len(in.Operands) {
		return
	}
	spec := &in.Operands[ref.Index]
	conc := inst.OperandFor(ref.Index)
	switch spec.Kind {
	case isa.OpReg:
		r := conc.Reg
		if r == isa.RegNone {
			return
		}
		// Writing an 8- or 16-bit part of a general-purpose register merges
		// with the previous contents (the cause of partial-register stalls,
		// Section 5.2.1); the merge is modelled as an extra read of the old
		// value.
		if spec.Class == isa.ClassGPR8 || spec.Class == isa.ClassGPR16 {
			m.readIdx = append(m.readIdx, m.liveInReg(r, in.Domain))
		}
		v := m.newVal(0, false, domain)
		m.regBoard[r.Family()] = v
		m.appendWrite(v, lat)
	case isa.OpMem:
		if conc.Mem == nil {
			return
		}
		m.readIdx = append(m.readIdx, m.liveInReg(conc.Mem.Base, isa.DomainInt))
		v := m.newVal(0, false, domain)
		m.setMem(conc.Mem.Addr, v)
		m.appendWrite(v, lat)
	case isa.OpFlags:
		for f := isa.Flag(0); f < isa.NumFlags; f++ {
			if spec.WriteFlags.Has(f) {
				v := m.newVal(0, false, isa.DomainInt)
				m.flagBoard[f] = v
				m.appendWrite(v, lat)
			}
		}
	}
}

// allExplicitRegsEqual reports whether all explicit register operands of the
// instruction use the same concrete register, and how many there are.
func allExplicitRegsEqual(inst *asmgen.Inst) (bool, int) {
	var first isa.Reg
	count := 0
	equal := true
	inst.Variant.ForEachExplicit(func(i int, spec *isa.Operand) bool {
		if spec.Kind != isa.OpReg {
			return true
		}
		r := inst.Ops[i].Reg
		count++
		if count == 1 {
			first = r
		} else if r != first {
			equal = false
			return false
		}
		return true
	})
	if !equal {
		return false, count
	}
	return count > 0, count
}

// isRegRegMove reports whether the concrete instruction is a plain
// register-to-register move with two explicit register operands.
func isRegRegMove(inst *asmgen.Inst) bool {
	expl := 0
	var dst, src *isa.Operand
	inst.Variant.ForEachExplicit(func(i int, spec *isa.Operand) bool {
		switch i {
		case 0:
			dst = spec
		case 1:
			src = spec
		}
		expl++
		return expl <= 2
	})
	if expl != 2 {
		return false
	}
	return dst.Kind == isa.OpReg && src.Kind == isa.OpReg &&
		dst.Write && !dst.Read && src.Read && !src.Write
}

// bypassDelay returns the extra forwarding latency when a value produced in
// domain from is consumed in domain to (Section 5.2.1: bypass delays between
// integer and floating-point SIMD operations).
func bypassDelay(from, to isa.Domain) int {
	if from == to {
		return 0
	}
	if (from == isa.DomainVecInt && to == isa.DomainFP) || (from == isa.DomainFP && to == isa.DomainVecInt) {
		return 1
	}
	return 0
}

// wireUop computes the wake-up bookkeeping for a µop at issue time: pending
// (reads whose producer has not yet dispatched) and readyAt (the latest ready
// time over the already-known reads, bypass-adjusted for port-bound µops).
// Every unknown read registers a waiter node on the value, so the µop is
// notified — instead of re-polled — when the producer dispatches. Returns the
// pending count.
func (m *Machine) wireUop(ui int32, u *dynUop) int32 {
	pending := int32(0)
	readyAt := int32(0)
	for ri := u.rdStart; ri < u.rdEnd; ri++ {
		v := &m.vals[m.readIdx[ri]]
		if v.known {
			t := v.ready
			if !u.eliminated {
				t += idx32(bypassDelay(v.domain, u.domain))
			}
			if t > readyAt {
				readyAt = t
			}
			continue
		}
		pending++
		m.wnUop = append(m.wnUop, ui)
		m.wnNext = append(m.wnNext, v.waiters)
		v.waiters = idx32(len(m.wnUop) - 1)
	}
	u.pending = pending
	u.readyAt = readyAt
	return pending
}

// wake delivers a now-known value to every µop waiting on it: the consumer's
// readyAt absorbs the value's ready time (plus the bypass delay between the
// producing and consuming domains for port-bound µops) and its pending count
// drops. The last input's arrival moves the µop onward: port-bound µops enter
// the wake-up heap keyed by their final readyAt, rename-handled µops enter
// the completion queue. The waiter list is consumed exactly once.
func (m *Machine) wake(vi int32) {
	v := &m.vals[vi]
	for wi := v.waiters; wi >= 0; wi = m.wnNext[wi] {
		ui := m.wnUop[wi]
		u := &m.uops[ui]
		t := v.ready
		if !u.eliminated {
			t += idx32(bypassDelay(v.domain, u.domain))
		}
		if t > u.readyAt {
			u.readyAt = t
		}
		if u.pending--; u.pending == 0 {
			if u.eliminated {
				m.elimReady = append(m.elimReady, ui)
			} else {
				m.pushWake(u.readyAt, ui)
			}
		}
	}
	v.waiters = -1
}

// pushWake inserts a (readyAt, µop) pair into the wake-up min-heap. The pair
// is packed into one uint64 with readyAt in the high bits, so heap order is
// readyAt first, µop index (program order) second.
func (m *Machine) pushWake(readyAt, ui int32) {
	h := append(m.wakeHeap, uint64(uint32(readyAt))<<32|uint64(uint32(ui)))
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent] <= h[i] {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	m.wakeHeap = h
}

// popWake removes the minimum entry of the wake-up heap.
func (m *Machine) popWake() {
	h := m.wakeHeap
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		small := l
		if r := l + 1; r < n && h[r] < h[l] {
			small = r
		}
		if h[i] <= h[small] {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	m.wakeHeap = h
}

// execute runs the issue/dispatch loop. It is event-driven at both
// granularities: within a cycle, dispatch walks only the ready queue — µops
// whose last input arrived (wake-up lists keyed by producing value replace
// the per-cycle rescan of the whole scheduler window) — and across cycles,
// spans in which provably nothing can issue, complete or dispatch are skipped
// in one step to the next wake-up event.
func (m *Machine) execute() Counters {
	numPorts := m.arch.NumPorts()
	c := Counters{PortUops: make([]int, numPorts)}
	c.IssuedUops = len(m.uops)

	issueWidth := m.arch.IssueWidth()
	schedSize := m.cfg.SchedulerSize
	allPorts := uint16(1)<<uint(numPorts) - 1

	nextIssue := 0     // next µop (program order) to issue
	schedCount := 0    // issued µops still waiting for an execution port
	elimWaiting := 0   // issued rename-handled µops not yet completed
	dividerFreeAt := 0 // next cycle the divider can accept a µop
	finish := 0

	// readyUnion conservatively over-approximates the union of the port
	// masks in the ready queue: once dispatch has claimed every port in it,
	// no remaining ready µop can dispatch this cycle and the walk stops. It
	// is recomputed exactly on every full walk.
	var readyUnion uint16

	cycle := 0
	idleCycles := 0
	for cycle < m.cfg.MaxCycles {
		// Issue stage: deliver up to issueWidth µops into the scheduler (or
		// complete them directly if they need no execution port). The
		// scheduler window counts only µops still waiting for dispatch; a
		// µop's entry is reclaimed at the end of its dispatch cycle (see
		// Config.SchedulerSize).
		issued := 0
		for nextIssue < len(m.uops) && issued < issueWidth && schedCount < schedSize {
			ui := idx32(nextIssue)
			nextIssue++
			issued++
			u := &m.uops[ui]
			if u.eliminated {
				c.ElimUops++
				elimWaiting++
				if m.wireUop(ui, u) == 0 {
					m.elimReady = append(m.elimReady, ui)
				}
				continue
			}
			schedCount++
			if m.wireUop(ui, u) == 0 {
				if u.readyAt <= idx32(cycle) {
					// Ready at issue (the common case for independent
					// code): skip the heap round-trip, the µop arrives
					// this very cycle. Issue order is program order, so
					// these arrivals are pre-sorted.
					m.arrivals = append(m.arrivals, ui)
				} else {
					m.pushWake(u.readyAt, ui)
				}
			}
		}

		// Rename-handled µops complete as soon as their inputs are known;
		// their outputs are ready when their inputs are (zero latency, no
		// bypass). Completing one may wake further rename-handled µops,
		// which complete in the same cycle (the queue grows mid-walk),
		// matching the in-order scan this replaces: a rename-time chain
		// resolves in one cycle.
		for ei := 0; ei < len(m.elimReady); ei++ {
			ui := m.elimReady[ei]
			u := &m.uops[ui]
			ready := idx32(cycle)
			if u.readyAt > ready {
				ready = u.readyAt
			}
			for wi := u.wrStart; wi < u.wrEnd; wi++ {
				vi := m.writeIdx[wi]
				v := &m.vals[vi]
				v.ready = ready
				v.known = true
				v.domain = u.domain
				if v.waiters >= 0 {
					m.wake(vi)
				}
			}
			if int(ready) > finish {
				finish = int(ready)
			}
			elimWaiting--
		}
		m.elimReady = m.elimReady[:0]

		// Collect the µops whose wake-up time has arrived (joining any
		// ready-at-issue arrivals from above) and merge them into the ready
		// queue in program order (the heap yields them in ready-time order,
		// so a sort is needed before the merge).
		popped := false
		for len(m.wakeHeap) > 0 {
			top := m.wakeHeap[0]
			if int(top>>32) > cycle {
				break
			}
			m.popWake()
			m.arrivals = append(m.arrivals, int32(uint32(top)))
			popped = true
		}
		if len(m.arrivals) > 0 {
			if popped {
				// Heap pops arrive in ready-time order and may interleave
				// with this cycle's pre-sorted issue-direct arrivals; only
				// then is a sort needed.
				slices.Sort(m.arrivals)
			}
			for _, ui := range m.arrivals {
				readyUnion |= m.uops[ui].portMask
			}
			if len(m.readyQ) == 0 {
				m.readyQ, m.arrivals = m.arrivals, m.readyQ
			} else if m.arrivals[0] > m.readyQ[len(m.readyQ)-1] {
				// Every arrival is younger than the whole queue (always so
				// for arrivals straight from issue): no merge needed.
				m.readyQ = append(m.readyQ, m.arrivals...)
			} else {
				merged := m.readyScratch[:0]
				i, j := 0, 0
				for i < len(m.readyQ) && j < len(m.arrivals) {
					if m.readyQ[i] < m.arrivals[j] {
						merged = append(merged, m.readyQ[i])
						i++
					} else {
						merged = append(merged, m.arrivals[j])
						j++
					}
				}
				merged = append(merged, m.readyQ[i:]...)
				merged = append(merged, m.arrivals[j:]...)
				m.readyQ, m.readyScratch = merged, m.readyQ[:0]
			}
			m.arrivals = m.arrivals[:0]
		}

		// Dispatch stage: oldest-first over the ready µops only, one µop per
		// port per cycle. Identical port claims to the old full-window scan:
		// the ready queue is in program order and non-ready µops could never
		// claim a port anyway.
		var takenMask uint16
		dispatchedAny := false
		readyDivBlocked := false
		if len(m.readyQ) > 0 {
			kept := m.readyQ[:0]
			var keptUnion uint16
			fullWalk := true
			for qi, n := 0, len(m.readyQ); qi < n; qi++ {
				if readyUnion&^takenMask == 0 {
					// Every port any ready µop could use is taken: the rest
					// of the queue carries over to the next cycle as is.
					kept = append(kept, m.readyQ[qi:n]...)
					fullWalk = false
					break
				}
				ui := m.readyQ[qi]
				u := &m.uops[ui]
				avail := u.portMask &^ takenMask
				if avail == 0 {
					kept = append(kept, ui)
					keptUnion |= u.portMask
					continue
				}
				if u.divider && cycle < dividerFreeAt {
					kept = append(kept, ui)
					keptUnion |= u.portMask
					readyDivBlocked = true
					continue
				}
				p := choosePort(avail, &m.portLoad)
				takenMask |= 1 << uint(p)
				m.portLoad[p]++
				c.PortUops[p]++
				c.TotalUops++
				dispatchedAny = true
				schedCount--
				if u.divider {
					occ := int(u.divOcc)
					if occ < 1 {
						occ = 1
					}
					dividerFreeAt = cycle + occ
				}
				// Write latencies were clamped to >= 1 at rename, so dispatch
				// needs no re-clamp here.
				for wi := u.wrStart; wi < u.wrEnd; wi++ {
					vi := m.writeIdx[wi]
					v := &m.vals[vi]
					v.ready = idx32(cycle) + m.writeLat[wi]
					v.known = true
					v.domain = u.domain
					if int(v.ready) > finish {
						finish = int(v.ready)
					}
					if v.waiters >= 0 {
						m.wake(vi)
					}
				}
				if u.wrStart == u.wrEnd && cycle+1 > finish {
					finish = cycle + 1
				}
				if takenMask == allPorts {
					kept = append(kept, m.readyQ[qi+1:n]...)
					fullWalk = false
					break
				}
			}
			m.readyQ = kept
			if fullWalk {
				readyUnion = keptUnion
			}
		}

		cycle++
		if nextIssue >= len(m.uops) && schedCount == 0 && elimWaiting == 0 {
			break
		}
		if issued == 0 && !dispatchedAny {
			// Deadlock guard: µops stuck waiting for values that are blocked
			// forever (a modelling bug rather than a property of the code
			// under test); a divider occupancy can legitimately stall
			// dispatch for a bounded number of cycles, so allow a generous
			// margin.
			idleCycles++
			if idleCycles > 10000 {
				break
			}
			// Event-driven fast-forward: an idle cycle changes nothing —
			// issue stays blocked (the scheduler did not drain), pending
			// eliminated µops keep waiting for a dispatch, and no value
			// becomes known. The next possible event falls out of the
			// wake-up structures: the heap's earliest entry, or the divider
			// becoming free when a ready divider µop is blocked on it. µops
			// still pending need another dispatch first, so they cannot
			// precede that event; ready µops whose ports are unclaimable
			// (an empty port mask on this generation) never produce one.
			// The skipped cycles are charged against the same deadlock
			// budget the one-by-one walk would have used; when no event can
			// ever occur, the huge skip runs the budget out, as before.
			next := -1
			if len(m.wakeHeap) > 0 {
				next = int(m.wakeHeap[0] >> 32)
			}
			if readyDivBlocked && (next < 0 || dividerFreeAt < next) {
				next = dividerFreeAt
			}
			skip := 1 << 30
			if next >= 0 {
				skip = next - cycle
			}
			if skip > 0 {
				if maxIdle := 10001 - idleCycles; skip > maxIdle {
					skip = maxIdle // the guard fires mid-wait, as before
				}
				if cycle+skip > m.cfg.MaxCycles {
					skip = m.cfg.MaxCycles - cycle
				}
				if skip > 0 {
					cycle += skip
					idleCycles += skip
					if idleCycles > 10000 {
						break
					}
				}
			}
		} else {
			idleCycles = 0
		}
	}
	// Return queue capacity to the Machine (a deadlocked run may leave
	// entries behind; Reset truncates them either way).
	m.readyQ = m.readyQ[:0]
	m.arrivals = m.arrivals[:0]
	m.wakeHeap = m.wakeHeap[:0]
	m.elimReady = m.elimReady[:0]

	if finish < cycle {
		finish = cycle
	}
	c.Cycles = finish
	return c
}

// portMaskFor converts a µop's allowed-port list into a bitmask, dropping
// ports the generation does not have (matching the old slice-walking
// choosePort, which skipped them).
func portMaskFor(ports []int, numPorts int) uint16 {
	var mask uint16
	for _, p := range ports {
		if p >= 0 && p < numPorts {
			mask |= 1 << uint(p)
		}
	}
	return mask
}

// choosePort picks the free, allowed port with the lowest accumulated load
// (a simple load-balancing heuristic similar in spirit to the hardware's
// port-binding policy) from a non-empty availability mask. Ties go to the
// lowest-numbered port; the µop tables list ports in ascending order (pinned
// by TestPortSetsAscending in package uarch), so this reproduces the
// first-listed-port-wins tie-break of the earlier slice-walking
// implementation exactly.
func choosePort(avail uint16, load *[maxPorts]int32) int {
	best := -1
	for mk := avail; mk != 0; mk &= mk - 1 {
		p := bits.TrailingZeros16(mk)
		if best < 0 || load[p] < load[best] {
			best = p
		}
	}
	return best
}

// Validate checks that every instruction in the sequence belongs to the
// machine's instruction set; it is used by the measurement harness before
// running benchmarks.
func (m *Machine) Validate(code asmgen.Sequence) error {
	set := m.arch.InstrSet()
	for i, inst := range code {
		if set.Lookup(inst.Variant.Name) == nil {
			return fmt.Errorf("pipesim: %s: instruction %d (%s) is not available on this microarchitecture",
				m.arch.Name(), i, inst.Variant.Name)
		}
	}
	return nil
}
