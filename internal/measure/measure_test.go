package measure

import (
	"testing"

	"uopsinfo/internal/asmgen"
	"uopsinfo/internal/isa"
	"uopsinfo/internal/pipesim"
	"uopsinfo/internal/uarch"
)

func skylakeHarness(cfg Config) (*Harness, *uarch.Arch) {
	arch := uarch.Get(uarch.Skylake)
	return NewWithConfig(pipesim.New(arch), cfg), arch
}

func addSequence(t *testing.T, arch *uarch.Arch, n int) asmgen.Sequence {
	t.Helper()
	add := arch.InstrSet().Lookup("ADD_R64_R64")
	if add == nil {
		t.Fatal("ADD_R64_R64 missing")
	}
	regs := []isa.Reg{isa.RAX, isa.RBX, isa.RCX, isa.RDX, isa.RSI, isa.RDI, isa.R8, isa.R9}
	var seq asmgen.Sequence
	for i := 0; i < n; i++ {
		r := regs[i%len(regs)]
		seq = append(seq, asmgen.MustInst(add, asmgen.RegOperand(r), asmgen.RegOperand(r)))
	}
	return seq
}

func TestMeasureRemovesOverhead(t *testing.T) {
	t.Parallel()
	// With a large modelled overhead, the copy-differencing protocol must
	// still report the per-copy cost of the code itself.
	h, arch := skylakeHarness(Config{ShortCopies: 2, LongCopies: 12, Repetitions: 3,
		OverheadCycles: 500, OverheadUops: 40})
	seq := addSequence(t, arch, 8)
	res, err := h.Measure(seq)
	if err != nil {
		t.Fatal(err)
	}
	// 8 independent ADDs take about 2 cycles per copy (4 per cycle).
	if res.Cycles < 1 || res.Cycles > 4 {
		t.Errorf("per-copy cycles = %.2f, want about 2 (overhead not cancelled?)", res.Cycles)
	}
	if res.TotalUops < 7.5 || res.TotalUops > 8.5 {
		t.Errorf("per-copy µops = %.2f, want 8", res.TotalUops)
	}
	// Port counters must not contain the overhead µops either.
	sum := 0.0
	for _, u := range res.PortUops {
		sum += u
	}
	if sum < 7.5 || sum > 8.5 {
		t.Errorf("per-copy port µop sum = %.2f, want 8", sum)
	}
}

func TestMeasureLatencyChain(t *testing.T) {
	t.Parallel()
	h, arch := skylakeHarness(DefaultConfig())
	imul := arch.InstrSet().Lookup("IMUL_R64_R64")
	seq := asmgen.Sequence{asmgen.MustInst(imul, asmgen.RegOperand(isa.RAX), asmgen.RegOperand(isa.RAX))}
	res, err := h.Measure(seq)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles < 2.5 || res.Cycles > 3.5 {
		t.Errorf("IMUL chain = %.2f cycles per iteration, want 3", res.Cycles)
	}
}

func TestMeasureThroughputPerInstr(t *testing.T) {
	t.Parallel()
	h, arch := skylakeHarness(DefaultConfig())
	seq := addSequence(t, arch, 8)
	tp, err := h.MeasureThroughputPerInstr(seq)
	if err != nil {
		t.Fatal(err)
	}
	if tp < 0.2 || tp > 0.4 {
		t.Errorf("ADD throughput = %.3f c/i, want about 0.25", tp)
	}
}

func TestMeasureEmptySequence(t *testing.T) {
	t.Parallel()
	h, _ := skylakeHarness(DefaultConfig())
	if _, err := h.Measure(nil); err == nil {
		t.Error("Measure accepted an empty sequence")
	}
	if _, err := h.MeasureThroughputPerInstr(nil); err == nil {
		t.Error("MeasureThroughputPerInstr accepted an empty sequence")
	}
}

func TestConfigNormalization(t *testing.T) {
	t.Parallel()
	h, _ := skylakeHarness(Config{ShortCopies: -1, LongCopies: -5, Repetitions: 0})
	cfg := h.Config()
	if cfg.ShortCopies <= 0 || cfg.LongCopies <= cfg.ShortCopies || cfg.Repetitions <= 0 {
		t.Errorf("config not normalized: %+v", cfg)
	}
}

func TestPaperConfigMatchesProtocol(t *testing.T) {
	t.Parallel()
	cfg := PaperConfig()
	if cfg.ShortCopies != 10 || cfg.LongCopies != 110 || cfg.Repetitions != 100 {
		t.Errorf("PaperConfig = %+v, want n=10/110 and 100 repetitions", cfg)
	}
}

func TestResultUopsOnPorts(t *testing.T) {
	t.Parallel()
	r := Result{PortUops: []float64{1, 2, 0, 0, 3}}
	if got := r.UopsOnPorts([]int{0, 4}); got != 4 {
		t.Errorf("UopsOnPorts = %v, want 4", got)
	}
	if got := r.UopsOnPorts([]int{9}); got != 0 {
		t.Errorf("UopsOnPorts out of range = %v, want 0", got)
	}
}

func TestHarnessExposesRunnerAndArch(t *testing.T) {
	t.Parallel()
	arch := uarch.Get(uarch.Haswell)
	m := pipesim.New(arch)
	h := New(m)
	if h.Arch() != arch {
		t.Error("Arch() does not return the runner's architecture")
	}
	if h.Runner() != Runner(m) {
		t.Error("Runner() does not return the wrapped runner")
	}
}

// forkableFake is a Runner that counts its forks, to test the RunnerForker
// path of Harness.Fork.
type forkableFake struct {
	*pipesim.Machine
	forks *int
}

func (f forkableFake) ForkRunner() Runner {
	*f.forks++
	return forkableFake{Machine: f.Machine.Clone(), forks: f.forks}
}

// opaqueRunner is a Runner that cannot be forked.
type opaqueRunner struct{ *pipesim.Machine }

func TestHarnessFork(t *testing.T) {
	t.Parallel()
	h, arch := skylakeHarness(DefaultConfig())
	f, err := h.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if f.Runner() == h.Runner() {
		t.Fatal("forked harness shares the runner")
	}
	if f.Config() != h.Config() {
		t.Fatalf("forked config = %+v, want %+v", f.Config(), h.Config())
	}
	// Parent and fork must agree on the same measurement when run
	// concurrently: the stacks share no mutable state.
	seq := addSequence(t, arch, 8)
	res := make([]Result, 2)
	errs := make([]error, 2)
	done := make(chan int, 2)
	for i, hh := range []*Harness{h, f} {
		go func(i int, hh *Harness) {
			res[i], errs[i] = hh.Measure(seq)
			done <- i
		}(i, hh)
	}
	<-done
	<-done
	for i, err := range errs {
		if err != nil {
			t.Fatalf("harness %d: %v", i, err)
		}
	}
	if res[0].Cycles != res[1].Cycles || res[0].TotalUops != res[1].TotalUops {
		t.Errorf("parent and fork disagree: %+v vs %+v", res[0], res[1])
	}
}

func TestHarnessForkPrefersRunnerForker(t *testing.T) {
	t.Parallel()
	forks := 0
	arch := uarch.Get(uarch.Skylake)
	h := New(forkableFake{Machine: pipesim.New(arch), forks: &forks})
	if _, err := h.Fork(); err != nil {
		t.Fatal(err)
	}
	if forks != 1 {
		t.Errorf("ForkRunner called %d times, want 1", forks)
	}
}

func TestHarnessForkRejectsOpaqueRunner(t *testing.T) {
	t.Parallel()
	h := New(opaqueRunner{pipesim.New(uarch.Get(uarch.Skylake))})
	if _, err := h.Fork(); err == nil {
		t.Error("forking an unforkable runner should fail")
	}
}
