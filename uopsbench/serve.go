package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"uopsinfo/internal/core"
	"uopsinfo/internal/engine"
	"uopsinfo/internal/service"
	"uopsinfo/internal/store"
	"uopsinfo/internal/uarch"
)

// serving is a warmed store behind the characterization service on a
// loopback listener.
type serving struct {
	dir      string
	gens     []uarch.Generation
	st       *store.Store
	eng      *engine.Engine
	srv      *http.Server
	base     string
	served   chan error
	results  map[uarch.Generation]*core.ArchResult
	measured int // Engine.Stats().VariantsMeasured once warm
}

// startServing is the serve-mix set-up: it warms a fresh durable store with
// the full ISA of every generation through the engine, then starts the
// service over it. wrap, if non-nil, wraps the service's handler.
func startServing(e *env, gens []uarch.Generation, tr *tracer, wrap func(http.Handler) http.Handler) (*serving, error) {
	dir, err := os.MkdirTemp(e.dir, "serve-")
	if err != nil {
		return nil, err
	}
	return serveDir(e, dir, gens, tr, wrap)
}

// serveDir serves gens from the store in dir, characterizing every
// generation the store does not hold yet. close removes dir.
func serveDir(e *env, dir string, gens []uarch.Generation, tr *tracer, wrap func(http.Handler) http.Handler) (*serving, error) {
	s := &serving{dir: dir, gens: gens, results: make(map[uarch.Generation]*core.ArchResult)}
	if err := s.start(e, tr, wrap); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *serving) start(e *env, tr *tracer, wrap func(http.Handler) http.Handler) error {
	var err error
	if s.st, err = openStore(s.dir, store.DurabilityFull, tr); err != nil {
		return err
	}
	if s.eng, err = newEngine(e, tr, s.st); err != nil {
		return err
	}
	for _, gen := range s.gens {
		res, err := s.eng.CharacterizeArch(gen, engine.RunOptions{})
		if err != nil {
			return err
		}
		s.results[gen] = res
	}
	s.measured = s.eng.Stats().VariantsMeasured
	svc, err := service.New(service.Config{Engine: s.eng})
	if err != nil {
		return err
	}
	var h http.Handler = svc
	if tr != nil {
		h = timedHandler{h: h, t: tr}
	}
	if wrap != nil {
		h = wrap(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.base = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ln) }()
	return nil
}

// stopServer shuts the HTTP server down and waits for it to exit.
func (s *serving) stopServer() error {
	if s.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	s.srv = nil
	return err
}

// close stops the server and removes the store.
func (s *serving) close() error {
	err := s.stopServer()
	return errors.Join(err, os.RemoveAll(s.dir))
}

// referenceXML renders every warmed generation the CLI way and returns the
// digests served whole-arch XML bodies must match.
func (s *serving) referenceXML() (map[uarch.Generation]digest, error) {
	refs := make(map[uarch.Generation]digest, len(s.gens))
	for _, gen := range s.gens {
		arch, err := uarch.Lookup(gen)
		if err != nil {
			return nil, err
		}
		xml, err := renderXML(arch, s.results[gen], nil)
		if err != nil {
			return nil, err
		}
		refs[gen] = digestOf(xml)
	}
	return refs, nil
}

// sample is one completed serve-mix request.
type sample struct {
	kind     reqKind
	gen      uarch.Generation
	xml      bool
	id       string
	lat      time.Duration
	variants int // variants carried by a successful document body
}

// drive runs the clients' closed loops: each client sends its next request
// only after the previous response has been read. A client stops at the
// deadline, or after limit requests when limit is positive. Plans wrap
// around if a client gets through its whole plan.
func (s *serving) drive(e *env, plans [][]request, deadline time.Time, limit int, check *responseChecker) ([]sample, time.Duration) {
	out := make([][]sample, len(plans))
	var wg sync.WaitGroup
	start := time.Now()
	for c, plan := range plans {
		wg.Add(1)
		go func(c int, plan []request) {
			defer wg.Done()
			out[c] = s.client(e, c, plan, deadline, limit, check)
		}(c, plan)
	}
	wg.Wait()
	wall := time.Since(start)
	var all []sample
	for _, o := range out {
		all = append(all, o...)
	}
	return all, wall
}

func (s *serving) client(e *env, c int, plan []request, deadline time.Time, limit int, check *responseChecker) []sample {
	transport := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	defer transport.CloseIdleConnections()
	hc := &http.Client{Transport: transport, Timeout: time.Minute}
	etags := make([]string, len(plan))
	var samples []sample
	for i := 0; limit <= 0 || i < limit; i++ {
		if limit <= 0 && !time.Now().Before(deadline) {
			break
		}
		r := plan[i%len(plan)]
		smp, err := s.send(hc, c, i, r, etags, check)
		samples = append(samples, smp)
		e.tally.op(err)
	}
	return samples
}

// send issues one planned request, records its ETag and checks its
// response.
func (s *serving) send(hc *http.Client, c, i int, r request, etags []string, check *responseChecker) (sample, error) {
	smp := sample{kind: r.kind, gen: r.gen, xml: r.xml, id: requestID(c, i)}
	req, err := http.NewRequest(http.MethodGet, s.base+r.path, nil)
	if err != nil {
		return smp, err
	}
	req.Header.Set(reqIDHeader, smp.id)
	if r.kind == kindNotMod {
		req.Header.Set("If-None-Match", etags[r.prev])
	}
	start := time.Now()
	resp, err := hc.Do(req)
	if err != nil {
		smp.lat = time.Since(start)
		return smp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	smp.lat = time.Since(start)
	if err != nil {
		return smp, fmt.Errorf("GET %s: reading body: %w", r.path, err)
	}
	if err := check.check(r, resp.StatusCode, body); err != nil {
		return smp, err
	}
	switch r.kind {
	case kindFull, kindSubset, kindSingle:
		etags[i%len(etags)] = resp.Header.Get("ETag")
		if etags[i%len(etags)] == "" {
			return smp, fmt.Errorf("GET %s: no ETag", r.path)
		}
		smp.variants = r.variants
	}
	return smp, nil
}

// servePlanLength is each client's plan length; the closed loop wraps
// around it.
const servePlanLength = 4096

// traceRequests is how many requests each client sends in a traced run's
// fixed work.
const traceRequests = 120

func runServe(e *env) map[string]float64 {
	gens := pickGenerations(e.seed, serveFamilies)
	clients := parallelism()
	e.logf("generations %v, %d workers, %d clients", gens, e.workers, clients)
	plans, err := servePlan(e.seed, gens, clients, servePlanLength)
	if !e.tally.op(err) {
		return nil
	}
	if e.trace {
		return traceServe(e, gens, plans)
	}

	// Each probe warms a store of its own; this process serves from the
	// last one, as uopsd restarted over a warm cache directory would.
	probes, err := probeSetups(e, "serve-mix")
	if !e.tally.op(err) {
		return nil
	}
	setups := probeTimes(probes)
	e.logf("cold set-up times (s): %.3f", setups)
	for _, p := range probes[:len(probes)-1] {
		e.tally.op(os.RemoveAll(p.store))
	}
	refs := probeRefs(e, gens, probes)
	s, err := serveDir(e, probes[len(probes)-1].store, gens, nil, nil)
	if !e.tally.op(err) {
		return nil
	}
	defer func() { e.tally.op(s.close()) }()
	if s.measured != 0 {
		e.tally.op(fmt.Errorf("the warmed store lacked %d variants", s.measured))
	}
	// The results loaded from the store must render as the probe's freshly
	// characterized ones did.
	loaded, err := s.referenceXML()
	if !e.tally.op(err) {
		return nil
	}
	for _, gen := range gens {
		e.tally.op(sameDigest(gen.String()+" loaded from the warmed store", loaded[gen], refs[gen]))
		e.logf("%s: xml sha256 %s", gen, refs[gen])
	}
	mismatches, compared := resultsMismatches(s.results)

	samples, wall := s.drive(e, plans, time.Now().Add(e.duration()), 0, newResponseChecker(refs))
	e.tally.op(s.unmeasured())
	e.tally.op(s.stopServer())

	var restarts []float64
	for i := 0; i < reopens; i++ {
		d, _, _ := reopen(e, s.dir, store.DurabilityFull, gens, refs, nil)
		restarts = append(restarts, d.Seconds())
	}

	var lat []float64
	var byKind [numKinds][]float64
	variants := 0
	for _, smp := range samples {
		lat = append(lat, ms(smp.lat))
		byKind[smp.kind] = append(byKind[smp.kind], ms(smp.lat))
		variants += smp.variants
	}
	for k, l := range byKind {
		e.logf("%-7s %4d requests, p50 %8.3f ms, p90 %8.3f ms", reqKind(k), len(l), median(l), quantile(l, 0.9))
	}
	full := byKind[kindFull]
	for _, gen := range gens {
		for _, xml := range []bool{true, false} {
			var l []float64
			for _, smp := range samples {
				if smp.kind == kindFull && smp.gen == gen && smp.xml == xml {
					l = append(l, ms(smp.lat))
				}
			}
			e.logf("full %-12s xml=%-5v %4d requests, p50 %8.3f ms", gen, xml, len(l), median(l))
		}
	}
	e.logf("%d requests (%d whole documents) in %.2fs; p99 over %d samples; gt mismatches %d of %d",
		len(lat), len(full), wall.Seconds(), len(lat), mismatches, compared)
	return map[string]float64{
		"setup_s":        median(setups),
		"variants_per_s": float64(variants) / wall.Seconds(),
		"restart_s":      median(restarts),
		"req_p50_ms":     median(lat),
		"req_p99_ms":     quantile(lat, 0.99),
		"full_p50_ms":    median(full),
		"req_per_s":      float64(len(lat)) / wall.Seconds(),
		"max_rss_mb":     maxRSSMB(),
		"gt_match_ratio": 1 - ratio(float64(mismatches), float64(compared)),
	}
}

// unmeasured checks that serving measured nothing: every request was warm.
func (s *serving) unmeasured() error {
	if got := s.eng.Stats().VariantsMeasured; got != s.measured {
		return fmt.Errorf("serving measured %d variants after set-up", got-s.measured)
	}
	return nil
}

// serveWork is serve-mix's fixed work for a traced run: set up, send
// traceRequests requests per client, restart.
type serveWork struct {
	samples []sample
	refs    map[uarch.Generation]digest
	stats   []engine.Stats
	stores  []store.Stats
	results map[uarch.Generation]*core.ArchResult
	eng     *engine.Engine
	wall    time.Duration
}

func serveFixed(e *env, gens []uarch.Generation, plans [][]request, tr *tracer) (w serveWork) {
	start := time.Now()
	s, err := startServing(e, gens, tr, nil)
	if !e.tally.op(err) {
		return w
	}
	defer func() { e.tally.op(s.close()) }()
	w.eng, w.results = s.eng, s.results
	if w.refs, err = s.referenceXML(); !e.tally.op(err) {
		return w
	}
	w.samples, _ = s.drive(e, plans, time.Time{}, traceRequests, newResponseChecker(w.refs))
	e.tally.op(s.unmeasured())
	e.tally.op(s.stopServer())
	w.stats = append(w.stats, s.eng.Stats())
	w.stores = append(w.stores, s.st.Stats())
	_, es, ss := reopen(e, s.dir, store.DurabilityFull, gens, w.refs, tr)
	w.stats = append(w.stats, es)
	w.stores = append(w.stores, ss)
	w.wall = time.Since(start)
	return w
}

// traceServe runs serve-mix's fixed work untraced and traced, and reports
// the traced work's per-layer metrics, with the counts of a third, traced
// repetition at countWorkers workers.
func traceServe(e *env, gens []uarch.Generation, plans [][]request) map[string]float64 {
	plain := serveFixed(e, gens, plans, nil)

	tr := newTracer()
	activeTracer.Store(tr)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	traced := serveFixed(e, gens, plans, tr)
	runtime.ReadMemStats(&m1)
	for _, gen := range gens {
		e.tally.op(sameDigest("traced "+gen.String(), traced.refs[gen], plain.refs[gen]))
	}

	m := layerMetrics(tr, traced.stats, traced.stores)
	mismatches, compared := resultsMismatches(traced.results)
	m["core.gt_mismatches"] = float64(mismatches)
	m["core.gt_compared"] = float64(compared)

	var handler [numKinds][]float64
	var transport []float64
	tr.mu.Lock()
	for _, smp := range traced.samples {
		if h, ok := tr.handler[smp.id]; ok {
			handler[smp.kind] = append(handler[smp.kind], ms(h))
			transport = append(transport, ms(smp.lat-h))
		}
	}
	tr.mu.Unlock()
	m["service.requests"] = float64(len(traced.samples))
	for k := reqKind(0); k < numKinds; k++ {
		m["service.handler_p50_ms."+k.String()] = orZero(median(handler[k]))
		m["service.handler_p99_ms."+k.String()] = orZero(quantile(handler[k], 0.99))
	}
	m["service.transport_p50_ms"] = orZero(median(transport))
	addRuntime(m, &m0, &m1)
	m["trace_overhead"] = traced.wall.Seconds() / plain.wall.Seconds()

	ce, ctr := countEnv(e)
	counted := serveFixed(ce, gens, plans, ctr)
	for _, gen := range gens {
		e.tally.op(sameDigest("one-worker traced "+gen.String(), counted.refs[gen], plain.refs[gen]))
	}
	addCounts(e, m, ctr, counted.stats, counted.eng, gens)
	return m
}
