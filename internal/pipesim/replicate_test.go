package pipesim

import (
	"math/rand"
	"slices"
	"testing"

	"uopsinfo/internal/asmgen"
	"uopsinfo/internal/isa"
	"uopsinfo/internal/uarch"
)

// Tests for the rename replication in Run: on every sequence, Run must match
// a reference that renames every instruction, counter for counter and arena
// element for element.

// referenceRun is Run without rename replication: every instruction of the
// sequence goes through the per-instruction rename. It also returns what
// rename built.
func referenceRun(m *Machine, code asmgen.Sequence) (Counters, renamedState) {
	m.Reset()
	penalty := m.rename(code)
	renamed := captureRename(m, penalty)
	c := m.execute()
	c.Cycles += penalty
	return c, renamed
}

// renamedState captures everything rename builds for one sequence.
type renamedState struct {
	penalty   int
	vals      []dynVal
	uops      []dynUop
	readIdx   []int32
	writeIdx  []int32
	writeLat  []int32
	memVals   []int32
	regBoard  [isa.NumRegs]int32
	flagBoard [numFlagVals]int32
}

func captureRename(m *Machine, penalty int) renamedState {
	return renamedState{
		penalty:   penalty,
		vals:      slices.Clone(m.vals),
		uops:      slices.Clone(m.uops),
		readIdx:   slices.Clone(m.readIdx),
		writeIdx:  slices.Clone(m.writeIdx),
		writeLat:  slices.Clone(m.writeLat),
		memVals:   slices.Clone(m.memVals),
		regBoard:  m.regBoard,
		flagBoard: m.flagBoard,
	}
}

// diffRenamed returns the name of the first part of the rename state where a
// and b differ, or "" when they are identical.
func diffRenamed(a, b renamedState) string {
	switch {
	case a.penalty != b.penalty:
		return "penalty"
	case !slices.Equal(a.vals, b.vals):
		return "vals"
	case !slices.Equal(a.uops, b.uops):
		return "uops"
	case !slices.Equal(a.readIdx, b.readIdx):
		return "readIdx"
	case !slices.Equal(a.writeIdx, b.writeIdx):
		return "writeIdx"
	case !slices.Equal(a.writeLat, b.writeLat):
		return "writeLat"
	case !slices.Equal(a.memVals, b.memVals):
		return "memVals"
	case a.regBoard != b.regBoard:
		return "regBoard"
	case a.flagBoard != b.flagBoard:
		return "flagBoard"
	}
	return ""
}

// seqSSEAVXMix alternates a YMM AVX instruction with legacy SSE ones, so on
// generations that charge the SSE/AVX transition penalty every repetition
// pays it twice. It is nil on generations without AVX.
func seqSSEAVXMix(arch *uarch.Arch) asmgen.Sequence {
	vaddps := arch.InstrSet().Lookup("VADDPS_YMM_YMM_YMM")
	addps := arch.InstrSet().Lookup("ADDPS_XMM_XMM")
	if vaddps == nil || addps == nil {
		return nil
	}
	avx := asmgen.MustInst(vaddps, asmgen.RegOperand(isa.YMM0), asmgen.RegOperand(isa.YMM1), asmgen.RegOperand(isa.YMM2))
	sse := asmgen.MustInst(addps, asmgen.RegOperand(isa.XMM3), asmgen.RegOperand(isa.XMM4))
	return asmgen.Sequence{avx, sse, sse, sse, avx, sse}
}

// TestRunReplicationMatchesReference runs 300 random sequences, the
// benchmark shapes and (where AVX exists) an SSE/AVX mix, each repeated 1, 2, 3, 5, 12, 13 and 40 times with the
// same instruction pointers (the shape of the measurement protocol's n-copy
// runs), on every generation under both divider regimes. Run's counters must
// equal the reference's, and the replicating rename must build the same
// arenas and scoreboards as renaming every instruction. The copy counts
// cover sequences too short to replicate, replication that ends exactly at
// the end of the sequence, and replication followed by a partial tail.
func TestRunReplicationMatchesReference(t *testing.T) {
	t.Parallel()
	copies := []int{1, 2, 3, 5, 12, 13, 40}
	for gi, arch := range uarch.All() {
		gi, arch := gi, arch
		t.Run(arch.Name(), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(0x7e91 + int64(gi)))
			seqs := append(randomSequences(t, arch, 300, rng),
				seqWideIndependentWindow(arch),
				seqScatteredDeps(arch),
				seqIndependentALU(arch),
				seqDependencyChain(arch),
				seqBlockingSequence(arch))
			if mix := seqSSEAVXMix(arch); mix != nil {
				seqs = append(seqs, mix)
			}
			for _, div := range []DividerValues{SlowDividerValues, FastDividerValues} {
				m, ref := New(arch), New(arch)
				m.SetDividerValues(div)
				ref.SetDividerValues(div)
				replicated := 0
				for i, seq := range seqs {
					for _, n := range copies {
						code := seq.Repeat(n)
						want, wantState := referenceRun(ref, code)
						if got := m.MustRun(code); !countersEqual(got, want) {
							t.Fatalf("divider %d, sequence %d x%d: Run %+v, reference %+v",
								div, i, n, got, want)
						}
						replicated += m.replicated

						m.Reset()
						gotState := captureRename(m, m.renameRepeated(code))
						if part := diffRenamed(gotState, wantState); part != "" {
							t.Fatalf("divider %d, sequence %d x%d: renamed %s differs from the reference",
								div, i, n, part)
						}
					}
				}
				if replicated == 0 {
					t.Fatalf("divider %d: no run replicated a unit; the differential compares nothing", div)
				}
			}
		})
	}
}

// TestRunReplicatesLongBlockingRun pins that replication fires on the shape
// the measurement protocol's long run sends: a port-blocking sequence
// repeated 12 times with the same instruction pointers. The 65-instruction
// sequence is one unit; units 1-3 are renamed (unit 1 also materializes the
// live-in sources, so units 2 and 3 are the first pair that create the same
// number of values) and the other 9 are copied.
func TestRunReplicatesLongBlockingRun(t *testing.T) {
	t.Parallel()
	arch := uarch.Get(uarch.Skylake)
	m := New(arch)
	code := seqBlockingSequence(arch).Repeat(12)
	got := m.MustRun(code)
	if m.replicated != 9 {
		t.Fatalf("replicated %d units, want 9", m.replicated)
	}
	if want, _ := referenceRun(New(arch), code); !countersEqual(got, want) {
		t.Fatalf("Run %+v, reference %+v", got, want)
	}
}
