package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"uopsinfo/internal/core"
	"uopsinfo/internal/engine"
	"uopsinfo/internal/store"
	"uopsinfo/internal/store/storefs"
	"uopsinfo/internal/uarch"
)

// newEngine builds an engine with the run's worker budget, over st if
// non-nil. A traced engine measures on the tracing backend and reports
// blocking discovery to the tracer.
func newEngine(e *env, tr *tracer, st *store.Store) (*engine.Engine, error) {
	cfg := engine.Config{Workers: e.workers, Store: st}
	if tr != nil {
		cfg.Backend = tracedBackendName
		cfg.BlockingProgress = tr.blockingProgress
	}
	return engine.New(cfg)
}

// openStore opens a store with default compaction and the given
// durability: full for serve-mix, as uopsd opens it; rename-only for
// isa-fill, as the one-shot CLIs' -cache opens it. (A full-durability fill
// waits on fsync of the benchmark's disk, whose speed varied too much between
// runs to measure the program.) A traced store does its I/O through the
// timing filesystem.
func openStore(dir string, dur store.Durability, tr *tracer) (*store.Store, error) {
	opts := store.Options{Durability: dur}
	if tr != nil {
		opts.FS = timingFS{inner: storefs.OS{}, t: tr}
	}
	start := time.Now()
	st, err := store.OpenOptions(dir, opts)
	if tr != nil {
		tr.openNs.Add(int64(time.Since(start)))
	}
	return st, err
}

// genDoc is one generation's whole-ISA document as one operation produced
// it.
type genDoc struct {
	gen      uarch.Generation
	variants int
	sha      digest
	res      *core.ArchResult
	dur      time.Duration
}

// produce characterizes (or loads) one generation's full ISA through eng and
// renders its XML, timed as one operation, then checks the document. Like a
// fresh CLI process, the operation starts on a collected heap, so garbage
// left by earlier operations is not charged to it.
func produce(e *env, eng *engine.Engine, gen uarch.Generation, tr *tracer) (genDoc, error) {
	arch, err := uarch.Lookup(gen)
	if err != nil {
		return genDoc{}, err
	}
	runtime.GC()
	start := time.Now()
	res, err := eng.CharacterizeArch(gen, engine.RunOptions{})
	if err != nil {
		return genDoc{}, err
	}
	if tr != nil {
		tr.characterizeNs.Add(int64(time.Since(start)))
	}
	xml, err := renderXML(arch, res, tr)
	if err != nil {
		return genDoc{}, err
	}
	d := genDoc{gen: gen, variants: len(res.Results), sha: digestOf(xml), res: res, dur: time.Since(start)}
	return d, checkDoc(arch, xml)
}

// isaPass is one pass of an isa-* workload over its generations.
type isaPass struct {
	cold []genDoc
	// restarts are how long fresh engines took to serve every generation's
	// XML again: from the reopened store, or recomputed without one.
	restarts []time.Duration
	// eng is the engine of the cold phase, whose characterizers the traced
	// run samples afterwards.
	eng    *engine.Engine
	stats  []engine.Stats
	stores []store.Stats
}

// coldPass characterizes every generation on one engine without a store.
func coldPass(e *env, gens []uarch.Generation, tr *tracer) isaPass {
	var p isaPass
	eng, err := newEngine(e, tr, nil)
	if !e.tally.op(err) {
		return p
	}
	p.eng = eng
	var pass time.Duration
	for _, gen := range gens {
		d, err := produce(e, eng, gen, tr)
		if e.tally.op(err) {
			p.cold = append(p.cold, d)
			pass += d.dur
		}
	}
	p.restarts = append(p.restarts, pass)
	p.stats = append(p.stats, eng.Stats())
	return p
}

// fillPass characterizes every generation cold into an empty store, then
// reopens the store reopens times, each time serving every generation again.
func fillPass(e *env, gens []uarch.Generation, tr *tracer) isaPass {
	var p isaPass
	dir, err := os.MkdirTemp(e.dir, "fill-")
	if !e.tally.op(err) {
		return p
	}
	defer os.RemoveAll(dir)
	st, err := openStore(dir, store.DurabilityRename, tr)
	if !e.tally.op(err) {
		return p
	}
	eng, err := newEngine(e, tr, st)
	if !e.tally.op(err) {
		return p
	}
	p.eng = eng
	for _, gen := range gens {
		if d, err := produce(e, eng, gen, tr); e.tally.op(err) {
			p.cold = append(p.cold, d)
		}
	}
	stats := eng.Stats()
	e.tally.op(storeHealthy("fill", stats))
	p.stats = append(p.stats, stats)
	p.stores = append(p.stores, st.Stats())

	want := make(map[uarch.Generation]digest, len(p.cold))
	for _, d := range p.cold {
		want[d.gen] = d.sha
	}
	for i := 0; i < reopens; i++ {
		took, es, ss := reopen(e, dir, store.DurabilityRename, gens, want, tr)
		p.restarts = append(p.restarts, took)
		p.stats = append(p.stats, es)
		p.stores = append(p.stores, ss)
	}
	return p
}

// reopens is how many times a run reopens a filled store per pass
// (isa-fill) or after the closed loop (serve-mix); restart_s is the median.
const reopens = 7

// reopen opens the store in dir in a fresh engine and serves every
// generation's XML from it, as a restarted process would. Every document
// must match want, come from the result tier and measure nothing. It
// returns the time taken, checks excluded.
func reopen(e *env, dir string, dur store.Durability, gens []uarch.Generation, want map[uarch.Generation]digest, tr *tracer) (time.Duration, engine.Stats, store.Stats) {
	runtime.GC() // a restarted process starts on an empty heap
	start := time.Now()
	st, err := openStore(dir, dur, tr)
	if !e.tally.op(err) {
		return 0, engine.Stats{}, store.Stats{}
	}
	eng, err := newEngine(e, tr, st)
	if !e.tally.op(err) {
		return 0, engine.Stats{}, store.Stats{}
	}
	took := time.Since(start)
	for _, gen := range gens {
		if d, err := produce(e, eng, gen, tr); e.tally.op(err) {
			took += d.dur
			e.tally.op(sameDigest(gen.String()+" after reopen", d.sha, want[gen]))
		}
	}
	es := eng.Stats()
	e.tally.op(storeHealthy("reopen", es))
	if es.ResultHits != len(gens) || es.VariantsMeasured != 0 {
		e.tally.op(fmt.Errorf("reopen: %d result hits and %d variants measured, want %d and 0",
			es.ResultHits, es.VariantsMeasured, len(gens)))
	}
	return took, es, st.Stats()
}

func storeHealthy(phase string, s engine.Stats) error {
	if s.SaveErrors != 0 || s.Store == nil || s.Store.Mode != store.ModeOK {
		mode := "none"
		if s.Store != nil {
			mode = s.Store.Mode
		}
		return fmt.Errorf("%s: %d save errors, store mode %s", phase, s.SaveErrors, mode)
	}
	return nil
}

// warmupStride selects every warmupStride-th variant for the warm-up.
const warmupStride = 10

// warmup is the isa-* set-up: build the generations' tables and IACA
// analyzers, and characterize every warmupStride-th variant of each on a
// throwaway engine, so lazy initialisation is paid before timing starts.
func warmup(e *env, gens []uarch.Generation) error {
	eng, err := newEngine(e, nil, nil)
	if err != nil {
		return err
	}
	for _, gen := range gens {
		arch, err := uarch.Lookup(gen)
		if err != nil {
			return err
		}
		if _, err := iacaAnalyzers(arch); err != nil {
			return err
		}
		instrs := arch.InstrSet().Instrs()
		var sample []string
		for i := 0; i < len(instrs); i += warmupStride {
			sample = append(sample, instrs[i].Name)
		}
		if _, err := eng.CharacterizeArch(gen, engine.RunOptions{Only: sample}); err != nil {
			return err
		}
	}
	return nil
}

// runISA runs isa-cold, or isa-fill when fill is set.
func runISA(e *env, fill bool) map[string]float64 {
	pass, workload := coldPass, "isa-cold"
	if fill {
		pass, workload = fillPass, "isa-fill"
	}
	gens := pickGenerations(e.seed, isaFamilies)
	e.logf("generations %v, %d workers", gens, e.workers)
	var setups []float64
	if !e.trace {
		probes, err := probeSetups(e, workload)
		if !e.tally.op(err) {
			return nil
		}
		setups = probeTimes(probes)
		e.logf("cold set-up times (s): %.3f", setups)
	}
	// This process's own set-up is not timed: it pays the lazy
	// initialisation before the passes are.
	if !e.tally.op(warmup(e, gens)) {
		return nil
	}
	if e.trace {
		return traceISA(e, gens, pass)
	}

	var passes []isaPass
	deadline := time.Now().Add(e.duration())
	for len(passes) == 0 || time.Now().Before(deadline) {
		p := pass(e, gens, nil)
		p.eng = nil
		if len(passes) > 0 {
			// Only the first pass's results are inspected again; holding on
			// to the later ones would grow max_rss_mb with the pass count.
			for i := range p.cold {
				p.cold[i].res = nil
			}
		}
		passes = append(passes, p)
	}
	first := passes[0]
	for _, d := range first.cold {
		e.logf("%s: %d variants, xml sha256 %s", d.gen, d.variants, d.sha)
	}
	for _, p := range passes[1:] {
		checkSameDocs(e, "repeat pass", p.cold, first.cold)
	}
	if fill {
		// The filled documents must equal a store-less run's.
		checkSameDocs(e, "store-less run", coldPass(e, gens, nil).cold, first.cold)
	}

	// Rates and latencies are medians over passes, so one pass slowed by
	// the host does not move them. The latency percentiles are taken over
	// the generations' median document latencies: with a handful of
	// documents per run, a percentile over single documents would be the
	// slowest one.
	var restarts, rates, opRates []float64
	genLat := make(map[uarch.Generation][]float64)
	for _, p := range passes {
		variants, busy := 0, time.Duration(0)
		for _, d := range p.cold {
			genLat[d.gen] = append(genLat[d.gen], ms(d.dur))
			variants += d.variants
			busy += d.dur
		}
		rates = append(rates, float64(variants)/busy.Seconds())
		opRates = append(opRates, float64(len(p.cold))/busy.Seconds())
		for _, d := range p.restarts {
			restarts = append(restarts, d.Seconds())
		}
	}
	var lat []float64
	for _, gen := range gens {
		lat = append(lat, median(genLat[gen]))
		e.logf("%s: median document latency %.1f ms over %d passes", gen, median(genLat[gen]), len(genLat[gen]))
	}
	e.logf("restart times (s): %.3f", restarts)
	mismatches, compared := passMismatches(first)
	e.logf("%d passes; gt mismatches %d of %d", len(passes), mismatches, compared)
	return map[string]float64{
		"setup_s":        median(setups),
		"variants_per_s": median(rates),
		"restart_s":      median(restarts),
		"req_p50_ms":     median(lat),
		"req_p99_ms":     quantile(lat, 0.99),
		"full_p50_ms":    median(lat),
		"req_per_s":      median(opRates),
		"max_rss_mb":     maxRSSMB(),
		"gt_match_ratio": 1 - ratio(float64(mismatches), float64(compared)),
	}
}

func checkSameDocs(e *env, what string, got, want []genDoc) {
	if len(got) != len(want) {
		e.tally.op(fmt.Errorf("%s: %d documents, want %d", what, len(got), len(want)))
		return
	}
	for i := range got {
		e.tally.op(sameDigest(what+" "+got[i].gen.String(), got[i].sha, want[i].sha))
	}
}

func passMismatches(p isaPass) (mismatches, compared int) {
	results := make(map[uarch.Generation]*core.ArchResult, len(p.cold))
	for _, d := range p.cold {
		results[d.gen] = d.res
	}
	return resultsMismatches(results)
}

// traceISA runs one pass untraced and one traced, and reports the traced
// pass's per-layer metrics, with the counts of a third, traced pass at
// countWorkers workers.
func traceISA(e *env, gens []uarch.Generation, pass func(*env, []uarch.Generation, *tracer) isaPass) map[string]float64 {
	start := time.Now()
	plain := pass(e, gens, nil)
	plainWall := time.Since(start)

	tr := newTracer()
	activeTracer.Store(tr)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start = time.Now()
	traced := pass(e, gens, tr)
	tracedWall := time.Since(start)
	runtime.ReadMemStats(&m1)
	checkSameDocs(e, "traced pass", traced.cold, plain.cold)

	m := layerMetrics(tr, traced.stats, traced.stores)
	mismatches, compared := passMismatches(traced)
	m["core.gt_mismatches"] = float64(mismatches)
	m["core.gt_compared"] = float64(compared)
	addRuntime(m, &m0, &m1)
	m["trace_overhead"] = tracedWall.Seconds() / plainWall.Seconds()

	ce, ctr := countEnv(e)
	counted := pass(ce, gens, ctr)
	checkSameDocs(e, "one-worker traced pass", counted.cold, plain.cold)
	addCounts(e, m, ctr, counted.stats, counted.eng, gens)
	return m
}

// countEnv returns a copy of e with countWorkers engine workers, and a new
// tracer made active for the repetition run in it.
func countEnv(e *env) (*env, *tracer) {
	ce := *e
	ce.workers = countWorkers
	tr := newTracer()
	activeTracer.Store(tr)
	return &ce, tr
}

// addCounts sets the metrics that count simulated work from a traced
// repetition at countWorkers workers: tr is its tracer, stats the engine
// statistics of its work and eng its engine, on which the core sample is
// taken. The times, rates and pool counters stay those of the repetition at
// the run's worker budget.
func addCounts(e *env, m map[string]float64, tr *tracer, stats []engine.Stats, eng *engine.Engine, gens []uarch.Generation) {
	measured := 0
	for _, s := range stats {
		measured += s.VariantsMeasured
	}
	m["pipesim.runs"] = float64(tr.runs.Load())
	m["pipesim.sim_cycles"] = float64(tr.simCycles.Load())
	m["measure.runs_per_variant"] = ratio(float64(tr.runs.Load()), float64(measured))
	if eng != nil {
		addCoreSample(e, m, tr, eng, gens)
	}
}

// layerMetrics derives the per-layer metrics from a tracer and the engine
// and store statistics of the traced work. Metrics the work never touched
// stay 0.
func layerMetrics(tr *tracer, stats []engine.Stats, stores []store.Stats) map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, s := range perLayer {
		m[s.name] = 0
	}
	var es engine.Stats
	for _, s := range stats {
		es.VariantsMeasured += s.VariantsMeasured
		es.VariantHits += s.VariantHits
		es.ResultHits += s.ResultHits
		es.ResultMisses += s.ResultMisses
		es.PoolForked += s.PoolForked
		es.PoolReused += s.PoolReused
		es.PoolSeqBuilt += s.PoolSeqBuilt
		es.PoolSeqReused += s.PoolSeqReused
	}
	busy := time.Duration(tr.busyNs.Load()).Seconds()
	m["pipesim.runs"] = float64(tr.runs.Load())
	m["pipesim.sim_cycles"] = float64(tr.simCycles.Load())
	m["pipesim.busy_s"] = busy
	m["pipesim.sim_cycles_per_s"] = ratio(float64(tr.simCycles.Load()), busy)
	m["measure.runs_per_variant"] = ratio(float64(tr.runs.Load()), float64(es.VariantsMeasured))
	m["measure.seq_checkouts"] = float64(es.PoolSeqBuilt + es.PoolSeqReused)
	m["measure.seq_reuse_ratio"] = ratio(float64(es.PoolSeqReused), m["measure.seq_checkouts"])
	m["measure.pool_checkouts"] = float64(es.PoolForked + es.PoolReused)
	m["measure.pool_reuse_ratio"] = ratio(float64(es.PoolReused), m["measure.pool_checkouts"])
	m["core.blocking_s"] = tr.blockingTime().Seconds()
	m["engine.characterize_s"] = time.Duration(tr.characterizeNs.Load()).Seconds()
	m["engine.variant_lookups"] = float64(es.VariantHits + es.VariantsMeasured)
	m["engine.variant_hit_ratio"] = ratio(float64(es.VariantHits), m["engine.variant_lookups"])
	m["engine.result_lookups"] = float64(es.ResultHits + es.ResultMisses)
	m["engine.result_hit_ratio"] = ratio(float64(es.ResultHits), m["engine.result_lookups"])
	m["engine.variants_measured"] = float64(es.VariantsMeasured)
	m["store.open_s"] = time.Duration(tr.openNs.Load()).Seconds()
	m["store.io_s"] = time.Duration(tr.ioNs.Load()).Seconds()
	m["store.sync_s"] = time.Duration(tr.syncNs.Load()).Seconds()
	m["store.syncs"] = float64(tr.syncs.Load())
	m["store.write_ops"] = float64(tr.writeOps.Load())
	m["store.write_bytes"] = float64(tr.writeBytes.Load())
	m["store.read_ops"] = float64(tr.readOps.Load())
	m["store.read_bytes"] = float64(tr.readBytes.Load())
	for _, s := range stores {
		m["store.compactions"] += float64(s.Compactions)
	}
	m["xmlout.render_s"] = time.Duration(tr.renderNs.Load()).Seconds()
	m["xmlout.bytes"] = float64(tr.renderBytes.Load())
	return m
}

func addRuntime(m map[string]float64, before, after *runtime.MemStats) {
	m["runtime.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	m["runtime.gc_cpu_fraction"] = after.GCCPUFraction
}

// coreSampleSize is how many variants per generation the traced run passes
// through the core phases one call at a time.
const coreSampleSize = 24

// addCoreSample times direct Latency, PortUsage and Throughput calls on a
// seeded sample of each generation's characterizable variants, counting the
// simulator runs each phase costs. It runs after the traced work, on that
// work's engine, and leaves the work's own metrics as they were.
func addCoreSample(e *env, m map[string]float64, tr *tracer, eng *engine.Engine, gens []uarch.Generation) {
	rng := rand.New(rand.NewSource(e.seed ^ 0xc0de))
	var lat, port, tp time.Duration
	var latRuns, portRuns, tpRuns int64
	n := 0
	phase := func(d *time.Duration, runs *int64, f func() error) error {
		r0, t0 := tr.runs.Load(), time.Now()
		err := f()
		*d += time.Since(t0)
		*runs += tr.runs.Load() - r0
		return err
	}
	for _, gen := range gens {
		c, err := eng.Characterizer(gen)
		if !e.tally.op(err) {
			continue
		}
		var eligible []int
		instrs := c.Arch().InstrSet().Instrs()
		for i, in := range instrs {
			if !in.IsSystem && !in.IsSerializing && !in.ControlFlow && !in.HasRep && !in.HasLock {
				eligible = append(eligible, i)
			}
		}
		for _, j := range rng.Perm(len(eligible))[:min(coreSampleSize, len(eligible))] {
			in := instrs[eligible[j]]
			var lr core.LatencyResult
			var pu core.PortUsage
			err := phase(&lat, &latRuns, func() (err error) { lr, err = c.Latency(in); return err })
			if err == nil {
				err = phase(&port, &portRuns, func() (err error) { pu, err = c.PortUsage(in, lr.MaxLatency()); return err })
			}
			if err == nil {
				err = phase(&tp, &tpRuns, func() error { _, err := c.Throughput(in, pu); return err })
			}
			if e.tally.op(err) {
				n++
			}
		}
	}
	m["core.latency_s"], m["core.latency_runs"] = lat.Seconds(), float64(latRuns)
	m["core.portusage_s"], m["core.portusage_runs"] = port.Seconds(), float64(portRuns)
	m["core.throughput_s"], m["core.throughput_runs"] = tp.Seconds(), float64(tpRuns)
	m["core.sample_variants"] = float64(n)
}
