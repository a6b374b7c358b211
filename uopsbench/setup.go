package main

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"uopsinfo/internal/uarch"
)

// Set-up is timed in fresh child processes. The program builds its
// microarchitecture tables and its instruction set once per process, behind
// sync.Once, so a set-up repeated inside one process pays those builds only
// the first time. Each probe runs the benchmark's own binary with
// -setup-probe: the child does the workload's set-up from a cold start and
// prints "ready", and the parent's clock runs from starting the child to
// reading that line. After it, a serve-mix child prints the digests of its
// CLI-path renderings ("xml <generation path> <sha256>") and the directory of
// the store it warmed ("store <dir>"), which the parent then serves from.

// setupProbes is how many cold set-ups a run times; setup_s is the median.
const setupProbes = 3

// probeResult is what one set-up probe reported.
type probeResult struct {
	took  time.Duration
	xml   map[string]digest // serve-mix: genPath -> CLI-rendering digest
	store string            // serve-mix: the warmed store's directory
}

// probeSetups runs setupProbes set-up probes of the workload one after
// another, each in a new directory under the run's scratch directory.
func probeSetups(e *env, workload string) ([]probeResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var probes []probeResult
	for i := 0; i < setupProbes; i++ {
		dir, err := os.MkdirTemp(e.dir, "probe-")
		if err != nil {
			return nil, err
		}
		r, err := probeSetup(exe, workload, e.seed, dir)
		if err != nil {
			return nil, err
		}
		probes = append(probes, r)
	}
	return probes, nil
}

func probeSetup(exe, workload string, seed int64, dir string) (probeResult, error) {
	r := probeResult{xml: make(map[string]digest)}
	cmd := exec.Command(exe, "-setup-probe", "-workload", workload,
		"-seed", strconv.FormatInt(seed, 10), "-dir", dir)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return r, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return r, err
	}
	var perr error
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		switch {
		case len(f) == 1 && f[0] == "ready":
			r.took = time.Since(start)
		case len(f) == 3 && f[0] == "xml":
			var d digest
			if b, err := hex.DecodeString(f[2]); err != nil || len(b) != len(d) {
				perr = fmt.Errorf("set-up probe: bad digest line %q", sc.Text())
			} else {
				copy(d[:], b)
				r.xml[f[1]] = d
			}
		case len(f) == 2 && f[0] == "store":
			r.store = f[1]
		default:
			perr = fmt.Errorf("set-up probe: unexpected line %q", sc.Text())
		}
	}
	if err := cmd.Wait(); err != nil {
		return r, fmt.Errorf("set-up probe: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	if perr == nil && r.took == 0 {
		perr = fmt.Errorf("set-up probe exited without becoming ready")
	}
	if perr == nil && workload == "serve-mix" && r.store == "" {
		perr = fmt.Errorf("set-up probe reported no store")
	}
	return r, perr
}

// setupProbe is the child side of a probe: the workload's set-up, cold,
// with its scratch stores in dir. It returns the process exit code.
func setupProbe(workload string, seed int64, dir string, stdout, stderr io.Writer) int {
	e := &env{seed: seed, workers: parallelism(), dir: dir, log: stderr, tally: &tally{}}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "uopsbench: set-up probe:", err)
		return 1
	}
	if workload != "serve-mix" {
		if err := warmup(e, pickGenerations(seed, isaFamilies)); err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, "ready")
		return 0
	}
	gens := pickGenerations(seed, serveFamilies)
	s, err := startServing(e, gens, nil, nil)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, "ready")
	refs, err := s.referenceXML()
	if err == nil {
		err = s.stopServer()
	}
	if err != nil {
		return fail(err)
	}
	for _, gen := range gens {
		fmt.Fprintf(stdout, "xml %s %s\n", genPath(gen), refs[gen])
	}
	fmt.Fprintf(stdout, "store %s\n", s.dir)
	return 0
}

// probeTimes returns the probes' set-up times in seconds.
func probeTimes(probes []probeResult) []float64 {
	var took []float64
	for _, p := range probes {
		took = append(took, p.took.Seconds())
	}
	return took
}

// probeRefs returns the CLI-rendering digests the serve-mix probes reported,
// checking that every probe rendered the same bytes.
func probeRefs(e *env, gens []uarch.Generation, probes []probeResult) map[uarch.Generation]digest {
	refs := make(map[uarch.Generation]digest, len(gens))
	for _, gen := range gens {
		d, ok := probes[0].xml[genPath(gen)]
		if !ok {
			e.tally.op(fmt.Errorf("set-up probe reported no digest for %s", gen))
			continue
		}
		refs[gen] = d
		for _, p := range probes[1:] {
			e.tally.op(sameDigest("set-up probe "+gen.String(), p.xml[genPath(gen)], d))
		}
	}
	return refs
}
