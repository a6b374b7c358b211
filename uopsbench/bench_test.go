package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"uopsinfo/internal/asmgen"
	"uopsinfo/internal/core"
	"uopsinfo/internal/engine"
	"uopsinfo/internal/measure"
	"uopsinfo/internal/pipesim"
	"uopsinfo/internal/uarch"
)

func testEnv(t *testing.T) *env {
	t.Helper()
	return &env{seed: 1, seconds: 1, workers: parallelism(), dir: t.TempDir(), log: io.Discard, tally: &tally{}}
}

// dividerHeavy selects variants whose results depend on the divider
// operand-value regime, on every generation.
var dividerHeavy = []string{
	"DIV_R64", "DIV_R32", "DIV_M64", "IDIV_M64", "IDIV_R8",
	"DIVSD_XMM_XMM", "DIVSS_XMM_M32", "DIVPS_XMM_M128", "DIVPD_XMM_XMM",
}

// noDividerBackend wraps the simulator like the traced backend but does not
// forward SetDividerValues: the wrapper defect the fidelity test must catch.
type noDividerBackend struct{}

func (noDividerBackend) Name() string    { return "uopsbench-test-nodivider" }
func (noDividerBackend) Version() string { return pipesim.Version }
func (noDividerBackend) NewRunner(gen uarch.Generation) (measure.Runner, error) {
	arch, err := uarch.Lookup(gen)
	if err != nil {
		return nil, err
	}
	return noDividerRunner{pipesim.New(arch)}, nil
}

type noDividerRunner struct{ m *pipesim.Machine }

func (r noDividerRunner) Run(code asmgen.Sequence) (pipesim.Counters, error) { return r.m.Run(code) }
func (r noDividerRunner) Arch() *uarch.Arch                                  { return r.m.Arch() }
func (r noDividerRunner) ForkRunner() measure.Runner                         { return noDividerRunner{r.m.Clone()} }

func init() { measure.Register(noDividerBackend{}) }

func dividerXML(t *testing.T, backend string, gen uarch.Generation) []byte {
	t.Helper()
	eng, err := engine.New(engine.Config{Workers: parallelism(), Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.CharacterizeArch(gen, engine.RunOptions{Only: dividerHeavy})
	if err != nil {
		t.Fatal(err)
	}
	arch, _ := uarch.Lookup(gen)
	xml, err := renderXML(arch, res, nil)
	if err != nil {
		t.Fatal(err)
	}
	return xml
}

// The traced backend must not change a single result byte; the divider
// variants are the ones a wrapper that drops SetDividerValues would change.
func TestTracedBackendFidelity(t *testing.T) {
	activeTracer.Store(newTracer())
	for _, gen := range []uarch.Generation{uarch.Nehalem, uarch.Skylake} {
		plain := dividerXML(t, measure.DefaultBackend, gen)
		if !bytes.Contains(plain, []byte("FastValues=")) {
			t.Fatalf("%s: selection has no fast-value divider results; the test would pass vacuously", gen)
		}
		if traced := dividerXML(t, tracedBackendName, gen); !bytes.Equal(traced, plain) {
			t.Errorf("%s: traced XML differs from untraced XML", gen)
		}
		if dropped := dividerXML(t, noDividerBackend{}.Name(), gen); bytes.Equal(dropped, plain) {
			t.Errorf("%s: dropping SetDividerValues left the XML unchanged; the selection does not exercise it", gen)
		}
	}
	if activeTracer.Load().runs.Load() == 0 {
		t.Error("the traced backend counted no simulator runs")
	}
}

func TestPlanDeterminism(t *testing.T) {
	gens := pickGenerations(1, serveFamilies)
	a, err := servePlan(1, gens, 2, 300)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := servePlan(1, gens, 2, 300)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave different request plans")
	}
	c, _ := servePlan(2, gens, 2, 300)
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same request plan")
	}
	for _, fams := range [][][]uarch.Generation{isaFamilies, serveFamilies} {
		if !reflect.DeepEqual(pickGenerations(7, fams), pickGenerations(7, fams)) {
			t.Error("the same seed picked different generations")
		}
		picks := make(map[string]bool)
		for seed := int64(1); seed <= 20; seed++ {
			picks[fmt.Sprint(pickGenerations(seed, fams))] = true
		}
		if len(picks) < 2 {
			t.Errorf("20 seeds all picked the same generations %v", picks)
		}
	}
	for c, plan := range a {
		var kinds [numKinds]int
		for i, r := range plan {
			kinds[r.kind]++
			if r.kind == kindNotMod && (r.prev >= i || plan[r.prev].path != r.path) {
				t.Fatalf("conditional request %d revalidates %d, which is not an earlier request for %s", i, r.prev, r.path)
			}
		}
		// 300 requests are three decks, less the conditional GETs skipped
		// before the plan had anything to revalidate.
		for k, n := range kinds {
			if want := 3 * mixPercent[k]; n < want-2 || n > want+2 {
				t.Errorf("client %d: %d %s requests in 300, want %d±2", c, n, reqKind(k), want)
			}
		}
	}
}

func TestParallelismWithinNproc(t *testing.T) {
	if p := parallelism(); p < 1 || p > runtime.NumCPU() || p > 2 {
		t.Errorf("parallelism() = %d with %d CPUs", p, runtime.NumCPU())
	}
	plans, err := servePlan(1, pickGenerations(1, serveFamilies), parallelism(), 10)
	if err != nil || len(plans) != parallelism() {
		t.Errorf("servePlan built %d client plans, want %d (err %v)", len(plans), parallelism(), err)
	}
}

// flipNth corrupts one byte of the body of the nth request it serves.
func flipNth(n int64) func(http.Handler) http.Handler {
	var seen atomic.Int64
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if seen.Add(1)-1 == n {
				w = &flipWriter{ResponseWriter: w}
			}
			h.ServeHTTP(w, r)
		})
	}
}

type flipWriter struct {
	http.ResponseWriter
	done bool
}

func (f *flipWriter) Write(p []byte) (int, error) {
	if f.done || len(p) == 0 {
		return f.ResponseWriter.Write(p)
	}
	f.done = true
	q := append([]byte(nil), p...)
	q[len(q)/2] ^= 1
	return f.ResponseWriter.Write(q)
}

// stripConditional drops If-None-Match, so a due 304 becomes a 200.
func stripConditional(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Header.Del("If-None-Match")
		h.ServeHTTP(w, r)
	})
}

// The serve-mix checks must count a corrupted body and a missing 304 as
// failures; without a corruption they must pass.
func TestServeChecksCountCorruption(t *testing.T) {
	gen := uarch.Nehalem
	subset := "/v1/arch/nehalem?only=ADD_R64_R64,DIV_R64&format=xml"
	plan := []request{
		{kind: kindFull, gen: gen, path: "/v1/arch/nehalem?format=xml", xml: true},
		{kind: kindSubset, gen: gen, path: subset},
		{kind: kindSubset, gen: gen, path: subset},
		{kind: kindNotMod, gen: gen, path: subset, prev: 1},
	}
	for _, tc := range []struct {
		name string
		wrap func(http.Handler) http.Handler
		fail bool
	}{
		{"clean", nil, false},
		{"flipped whole-arch XML", flipNth(0), true},
		{"flipped repeat body", flipNth(2), true},
		{"200 instead of 304", stripConditional, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := testEnv(t)
			s, err := startServing(e, []uarch.Generation{gen}, nil, tc.wrap)
			if err != nil {
				t.Fatal(err)
			}
			defer s.close()
			refs, err := s.referenceXML()
			if err != nil {
				t.Fatal(err)
			}
			samples, _ := s.drive(e, [][]request{plan}, time.Time{}, len(plan), newResponseChecker(refs))
			if err := s.unmeasured(); err != nil {
				t.Error(err)
			}
			_, failed := e.tally.counts()
			if len(samples) != len(plan) || (failed > 0) != tc.fail {
				t.Errorf("%d requests, %d failed (%v); want failures: %v", len(samples), failed, e.tally.errs, tc.fail)
			}
		})
	}
}

// A result with one port usage altered must fail the comparison against the
// CLI rendering and count as a ground-truth mismatch.
func TestAlteredPortUsageIsCounted(t *testing.T) {
	gen := uarch.Nehalem
	arch, _ := uarch.Lookup(gen)
	eng, err := engine.New(engine.Config{Workers: parallelism()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.CharacterizeArch(gen, engine.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	clean, err := renderXML(arch, res, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkDoc(arch, clean); err != nil {
		t.Fatal(err)
	}
	before, _ := gtMismatches(arch, res)

	altered := &core.ArchResult{Arch: res.Arch, Results: make(map[string]*core.InstrResult, len(res.Results))}
	for name, r := range res.Results {
		altered.Results[name] = r
	}
	add := *res.Results["ADD_R64_R64"]
	add.Ports = core.PortUsage{"0": 1}
	altered.Results["ADD_R64_R64"] = &add
	body, err := renderXML(arch, altered, nil)
	if err != nil {
		t.Fatal(err)
	}
	check := newResponseChecker(map[uarch.Generation]digest{gen: digestOf(clean)})
	full := request{kind: kindFull, gen: gen, path: "/v1/arch/nehalem?format=xml", xml: true}
	if err := check.check(full, http.StatusOK, body); err == nil {
		t.Error("a body with an altered port usage passed the CLI-rendering check")
	}
	if err := check.check(full, http.StatusOK, clean); err != nil {
		t.Errorf("the clean body failed: %v", err)
	}
	if after, _ := gtMismatches(arch, altered); after != before+1 {
		t.Errorf("gt mismatches %d after altering a matching variant, want %d", after, before+1)
	}
}

// Two traced passes of the same work, at the worker budget of the
// repetition a traced run takes its counts from, must count exactly the same simulator runs, cycles, store writes and
// ground-truth mismatches.
func TestTracedCountsRepeat(t *testing.T) {
	type counts struct{ runs, cycles, writes, mismatches int64 }
	var got []counts
	for i := 0; i < 2; i++ {
		e := testEnv(t)
		e.workers = countWorkers
		tr := newTracer()
		activeTracer.Store(tr)
		p := fillPass(e, []uarch.Generation{uarch.Nehalem}, tr)
		if _, failed := e.tally.counts(); failed > 0 {
			t.Fatalf("traced pass failed: %v", e.tally.errs)
		}
		m, _ := passMismatches(p)
		got = append(got, counts{tr.runs.Load(), tr.simCycles.Load(), tr.writeOps.Load(), int64(m)})
	}
	if got[0] != got[1] || got[0].runs == 0 || got[0].writes == 0 {
		t.Errorf("traced counts differ or are empty: %+v vs %+v", got[0], got[1])
	}
}

// BENCHMARK.json must declare exactly the metrics the program reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &cfg); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got []struct{ Name, Unit, Better string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit || got[i].Better != want[i].better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, got[i], want[i])
			}
		}
	}
	compare("end_to_end", cfg.EndToEnd, endToEnd)
	compare("per_layer", cfg.PerLayer, perLayer)
	var names []string
	for _, w := range cfg.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloadNames())
	}
}
