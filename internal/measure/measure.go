// Package measure implements the measurement protocol of the paper
// (Algorithm 2, Section 6.2): the benchmark code is wrapped in state
// save/restore and serializing instructions, run with two different numbers
// of copies of the code under test, and the difference of the two readings is
// divided by the difference in copy count, which removes the constant
// overhead of the serialization and counter reads. The whole procedure is
// repeated and averaged.
//
// On real hardware the protocol runs in kernel space with interrupts
// disabled; here it runs on the pipesim simulator, which plays the role of
// the processor. The fixed overhead of the serializing instructions and
// counter reads is modelled explicitly so that the differencing step of the
// protocol remains meaningful.
//
//uopslint:deterministic
package measure

import (
	"fmt"

	"uopsinfo/internal/asmgen"
	"uopsinfo/internal/pipesim"
	"uopsinfo/internal/uarch"
)

// Runner abstracts the execution substrate (the simulated processor). It is
// implemented by *pipesim.Machine.
//
// Run must not retain code after returning: the harness reuses the backing
// array of the sequences it passes in across measurements.
type Runner interface {
	Run(code asmgen.Sequence) (pipesim.Counters, error)
	Arch() *uarch.Arch
}

var _ Runner = (*pipesim.Machine)(nil)

// Result holds per-execution averages of the performance counters for one
// copy of the measured code sequence.
type Result struct {
	Cycles     float64
	PortUops   []float64
	TotalUops  float64
	IssuedUops float64
	ElimUops   float64
}

// UopsOnPorts sums the µops dispatched to the given ports.
func (r Result) UopsOnPorts(ports []int) float64 {
	sum := 0.0
	for _, p := range ports {
		if p >= 0 && p < len(r.PortUops) {
			sum += r.PortUops[p]
		}
	}
	return sum
}

// Config controls the measurement protocol.
type Config struct {
	// ShortCopies and LongCopies are the two copy counts whose difference
	// cancels the constant overhead. The paper uses 10 and 110; the
	// noise-free simulator allows smaller values, which the default config
	// uses to keep full-ISA runs fast.
	ShortCopies int
	LongCopies  int
	// Repetitions is the number of times the protocol is repeated and
	// averaged (100 in the paper).
	Repetitions int
	// OverheadCycles and OverheadUops model the serializing instructions and
	// performance-counter reads included in each raw reading.
	OverheadCycles int
	OverheadUops   int
}

// DefaultConfig returns the configuration used for full-ISA characterization
// runs on the simulator.
func DefaultConfig() Config {
	return Config{ShortCopies: 2, LongCopies: 12, Repetitions: 1,
		OverheadCycles: 42, OverheadUops: 8}
}

// PaperConfig returns the copy counts and repetition count used by the paper
// on real hardware (n=10 and n=110, 100 repetitions).
func PaperConfig() Config {
	return Config{ShortCopies: 10, LongCopies: 110, Repetitions: 100,
		OverheadCycles: 42, OverheadUops: 8}
}

// RunnerForker is implemented by runners that can create an independent copy
// of themselves. Forked runners share no mutable state with their parent and
// can therefore run on different goroutines without synchronization, which is
// what the sharded characterization scheduler relies on.
type RunnerForker interface {
	ForkRunner() Runner
}

// Harness runs the measurement protocol on a Runner.
//
// A Harness reuses internal sequence buffers across measurements and is
// therefore not safe for concurrent use; Fork creates independent harnesses
// for concurrent workers.
type Harness struct {
	runner Runner
	cfg    Config

	// shortBuf and longBuf hold the materialized n-copy sequences for the
	// current measurement. The protocol runs each of them once per
	// repetition, so they are built at most once per Measure call and
	// their backing arrays are reused across calls; when the same
	// code sequence is measured again back to back (e.g. re-measuring a
	// divider variant under a different operand-value regime), the buffers
	// are reused outright.
	shortBuf asmgen.Sequence
	longBuf  asmgen.Sequence
	// bufLen is the length of the code sequence the buffers currently hold
	// (0 = none); seqBuilt/seqReused count rebuilds vs reuses for
	// PoolStats.
	bufLen    int
	seqBuilt  int64
	seqReused int64
}

// New returns a harness with the default configuration.
func New(runner Runner) *Harness { return NewWithConfig(runner, DefaultConfig()) }

// NewWithConfig returns a harness with an explicit configuration.
func NewWithConfig(runner Runner, cfg Config) *Harness {
	if cfg.ShortCopies <= 0 {
		cfg.ShortCopies = 2
	}
	if cfg.LongCopies <= cfg.ShortCopies {
		cfg.LongCopies = cfg.ShortCopies + 10
	}
	if cfg.Repetitions <= 0 {
		cfg.Repetitions = 1
	}
	return &Harness{runner: runner, cfg: cfg}
}

// Arch returns the microarchitecture being measured.
func (h *Harness) Arch() *uarch.Arch { return h.runner.Arch() }

// Runner returns the underlying execution substrate (e.g. to switch the
// operand-value regime for divider-based instructions).
func (h *Harness) Runner() Runner { return h.runner }

// Config returns the harness configuration.
func (h *Harness) Config() Config { return h.cfg }

// Fork returns a Harness with the same configuration driving an independent
// copy of the runner, for use on another goroutine. It fails if the runner
// cannot be forked.
func (h *Harness) Fork() (*Harness, error) {
	switch r := h.runner.(type) {
	case RunnerForker:
		return NewWithConfig(r.ForkRunner(), h.cfg), nil
	case *pipesim.Machine:
		return NewWithConfig(r.Clone(), h.cfg), nil
	}
	return nil, fmt.Errorf("measure: runner %T cannot be forked", h.runner)
}

// Measure runs the protocol on the given code sequence and returns per-copy
// averages: the counters for executing the sequence once, with harness
// overhead removed. On hardware the protocol discards a warm-up run first;
// the simulated processor starts every Run from a reset machine, so a
// warm-up run would only reproduce the short run's counters, and Measure
// performs none.
func (h *Harness) Measure(code asmgen.Sequence) (Result, error) {
	if len(code) == 0 {
		return Result{}, fmt.Errorf("measure: empty code sequence")
	}
	numPorts := h.runner.Arch().NumPorts()
	acc := Result{PortUops: make([]float64, numPorts)}

	// Materialize the two copy-count sequences once; every repetition runs
	// the same code, so re-concatenating it per run would only produce
	// garbage for identical inputs. If the buffers already hold
	// exactly this code (same instruction instances, element for element),
	// skip even that: repeating the same pointers again would write back the
	// identical slice contents.
	if h.bufLen == len(code) && len(h.shortBuf) == len(code)*h.cfg.ShortCopies &&
		samePrefix(h.shortBuf, code) {
		h.seqReused++
	} else {
		h.shortBuf = repeatInto(h.shortBuf[:0], code, h.cfg.ShortCopies)
		h.longBuf = repeatInto(h.longBuf[:0], code, h.cfg.LongCopies)
		h.bufLen = len(code)
		h.seqBuilt++
	}

	for rep := 0; rep < h.cfg.Repetitions; rep++ {
		short, err := h.rawRun(h.shortBuf)
		if err != nil {
			return Result{}, err
		}
		long, err := h.rawRun(h.longBuf)
		if err != nil {
			return Result{}, err
		}
		diff := long.Sub(short)
		scale := float64(h.cfg.LongCopies - h.cfg.ShortCopies)
		acc.Cycles += float64(diff.Cycles) / scale
		acc.TotalUops += float64(diff.TotalUops) / scale
		acc.IssuedUops += float64(diff.IssuedUops) / scale
		acc.ElimUops += float64(diff.ElimUops) / scale
		for p := 0; p < numPorts && p < len(diff.PortUops); p++ {
			acc.PortUops[p] += float64(diff.PortUops[p]) / scale
		}
	}
	inv := 1.0 / float64(h.cfg.Repetitions)
	acc.Cycles *= inv
	acc.TotalUops *= inv
	acc.IssuedUops *= inv
	acc.ElimUops *= inv
	for p := range acc.PortUops {
		acc.PortUops[p] *= inv
	}
	return acc, nil
}

// repeatInto appends n copies of code to dst and returns it, reusing dst's
// backing array (the allocation-free analogue of code.Repeat(n)).
func repeatInto(dst, code asmgen.Sequence, n int) asmgen.Sequence {
	for i := 0; i < n; i++ {
		dst = append(dst, code...)
	}
	return dst
}

// samePrefix reports whether buf starts with exactly the instruction
// instances of code. Pointer identity is the right comparison: the buffers
// are built from the caller's instruction pointers, and an instruction
// mutated in place is the same pointer with the same (mutated) contents
// either way.
func samePrefix(buf, code asmgen.Sequence) bool {
	if len(buf) < len(code) {
		return false
	}
	for i, in := range code {
		if buf[i] != in {
			return false
		}
	}
	return true
}

// takeSeqStats returns and resets the harness's sequence-reuse counters
// (called by Pool.Put, which owns the harness at that point).
func (h *Harness) takeSeqStats() (built, reused int64) {
	built, reused = h.seqBuilt, h.seqReused
	h.seqBuilt, h.seqReused = 0, 0
	return built, reused
}

// rawRun executes an already-materialized n-copy sequence and adds the
// modelled measurement overhead (Algorithm 2 lines 3-9: serializing
// instructions and counter reads).
func (h *Harness) rawRun(code asmgen.Sequence) (pipesim.Counters, error) {
	c, err := h.runner.Run(code)
	if err != nil {
		return pipesim.Counters{}, err
	}
	c.Cycles += h.cfg.OverheadCycles
	c.TotalUops += h.cfg.OverheadUops
	c.IssuedUops += h.cfg.OverheadUops
	// The counter-read and serialization µops execute on the general ALU
	// ports; spread them so port readings also contain overhead that the
	// differencing must remove.
	for i := 0; i < h.cfg.OverheadUops && len(c.PortUops) > 0; i++ {
		c.PortUops[i%2]++
	}
	return c, nil
}

// MeasureThroughputPerInstr measures the average cycles per instruction for a
// sequence of independent instruction instances: the per-copy cycle count
// divided by the sequence length (Definition 2 in the paper).
func (h *Harness) MeasureThroughputPerInstr(code asmgen.Sequence) (float64, error) {
	res, err := h.Measure(code)
	if err != nil {
		return 0, err
	}
	if len(code) == 0 {
		return 0, fmt.Errorf("measure: empty code sequence")
	}
	return res.Cycles / float64(len(code)), nil
}
