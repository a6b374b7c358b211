package main

import (
	"io/fs"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"uopsinfo/internal/asmgen"
	"uopsinfo/internal/measure"
	"uopsinfo/internal/pipesim"
	"uopsinfo/internal/store/storefs"
	"uopsinfo/internal/uarch"
)

// tracer collects the per-layer counts and busy times of a traced run. It
// only observes the program from outside, at public seams: a registered
// measurement backend wrapping the simulator, a timing store filesystem, the
// engine's blocking-progress callback, and an HTTP handler wrapper. All
// fields are safe for concurrent use.
type tracer struct {
	// pipesim, at the wrapped runner.
	runs, simCycles, busyNs atomic.Int64
	// store, at the timing filesystem.
	ioNs, syncNs, syncs                      atomic.Int64
	writeOps, writeBytes, readOps, readBytes atomic.Int64
	openNs                                   atomic.Int64
	// engine and xmlout, around the benchmark's own calls.
	characterizeNs, renderNs, renderBytes atomic.Int64

	mu sync.Mutex
	// blocking holds the first and last blocking-discovery callback time
	// per generation.
	blocking map[uarch.Generation][2]time.Time
	// handler maps a request id (the reqIDHeader value) to its handler
	// time.
	handler map[string]time.Duration
}

func newTracer() *tracer {
	return &tracer{
		blocking: make(map[uarch.Generation][2]time.Time),
		handler:  make(map[string]time.Duration),
	}
}

// blockingProgress is an engine.Config.BlockingProgress callback.
func (t *tracer) blockingProgress(gen uarch.Generation, done, total int, name string) {
	now := time.Now()
	t.mu.Lock()
	span, ok := t.blocking[gen]
	if !ok {
		span[0] = now
	}
	span[1] = now
	t.blocking[gen] = span
	t.mu.Unlock()
}

// blockingTime sums, over generations, the time from the first to the last
// blocking-discovery callback.
func (t *tracer) blockingTime() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d time.Duration
	for _, span := range t.blocking {
		d += span[1].Sub(span[0])
	}
	return d
}

// tracedBackendName is the registry name of the tracing backend. Engines of
// a traced run select it; untraced runs use the default backend.
const tracedBackendName = "uopsbench-traced"

// activeTracer is the tracer new traced runners report to.
var activeTracer atomic.Pointer[tracer]

// tracedBackend is the default simulator behind a timing runner.
type tracedBackend struct{}

func (tracedBackend) Name() string    { return tracedBackendName }
func (tracedBackend) Version() string { return pipesim.Version }
func (tracedBackend) NewRunner(gen uarch.Generation) (measure.Runner, error) {
	arch, err := uarch.Lookup(gen)
	if err != nil {
		return nil, err
	}
	return &tracedRunner{m: pipesim.New(arch), t: activeTracer.Load()}, nil
}

func init() { measure.Register(tracedBackend{}) }

// tracedRunner times and counts the simulator runs of one stack. It forwards
// everything the layers above find on a *pipesim.Machine: Arch, forking (so
// the sharded scheduler still runs in parallel) and the divider operand-value
// switch, which core finds through a type assertion.
type tracedRunner struct {
	m *pipesim.Machine
	t *tracer
}

func (r *tracedRunner) Run(code asmgen.Sequence) (pipesim.Counters, error) {
	start := time.Now()
	c, err := r.m.Run(code)
	r.t.busyNs.Add(int64(time.Since(start)))
	r.t.runs.Add(1)
	r.t.simCycles.Add(int64(c.Cycles))
	return c, err
}

func (r *tracedRunner) Arch() *uarch.Arch { return r.m.Arch() }

func (r *tracedRunner) ForkRunner() measure.Runner {
	return &tracedRunner{m: r.m.Clone(), t: r.t}
}

func (r *tracedRunner) SetDividerValues(v pipesim.DividerValues) { r.m.SetDividerValues(v) }

// timingFS is the store filesystem of a traced run: the real filesystem,
// with every operation timed and counted.
type timingFS struct {
	inner storefs.FS
	t     *tracer
}

func (f timingFS) since(start time.Time) { f.t.ioNs.Add(int64(time.Since(start))) }

func (f timingFS) ReadFile(path string) ([]byte, error) {
	defer f.since(time.Now())
	b, err := f.inner.ReadFile(path)
	f.t.readOps.Add(1)
	f.t.readBytes.Add(int64(len(b)))
	return b, err
}

func (f timingFS) ReadAt(path string, offset, length int64) ([]byte, error) {
	defer f.since(time.Now())
	b, err := f.inner.ReadAt(path, offset, length)
	f.t.readOps.Add(1)
	f.t.readBytes.Add(int64(len(b)))
	return b, err
}

func (f timingFS) CreateTemp(dir, pattern string) (storefs.File, error) {
	defer f.since(time.Now())
	file, err := f.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	f.t.writeOps.Add(1)
	return timingFile{file, f}, nil
}

func (f timingFS) Rename(oldpath, newpath string) error {
	defer f.since(time.Now())
	return f.inner.Rename(oldpath, newpath)
}

func (f timingFS) Remove(path string) error {
	defer f.since(time.Now())
	return f.inner.Remove(path)
}

func (f timingFS) Stat(path string) (fs.FileInfo, error) {
	defer f.since(time.Now())
	return f.inner.Stat(path)
}

func (f timingFS) ReadDir(dir string) ([]fs.DirEntry, error) {
	defer f.since(time.Now())
	return f.inner.ReadDir(dir)
}

func (f timingFS) MkdirAll(dir string, perm fs.FileMode) error {
	defer f.since(time.Now())
	return f.inner.MkdirAll(dir, perm)
}

func (f timingFS) SyncDir(dir string) error {
	start := time.Now()
	err := f.inner.SyncDir(dir)
	f.synced(start)
	return err
}

func (f timingFS) synced(start time.Time) {
	d := int64(time.Since(start))
	f.t.syncNs.Add(d)
	f.t.ioNs.Add(d)
	f.t.syncs.Add(1)
}

type timingFile struct {
	storefs.File
	fs timingFS
}

func (f timingFile) Write(p []byte) (int, error) {
	defer f.fs.since(time.Now())
	n, err := f.File.Write(p)
	f.fs.t.writeBytes.Add(int64(n))
	return n, err
}

func (f timingFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.fs.synced(start)
	return err
}

func (f timingFile) Close() error {
	defer f.fs.since(time.Now())
	return f.File.Close()
}

// reqIDHeader carries the client's request id to the handler wrapper, which
// files the handler time under it.
const reqIDHeader = "X-Uopsbench-Request"

// timedHandler records the handler time of every request that carries a
// request id.
type timedHandler struct {
	h http.Handler
	t *tracer
}

func (th timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	th.h.ServeHTTP(w, r)
	d := time.Since(start)
	id := r.Header.Get(reqIDHeader)
	if id == "" {
		return
	}
	th.t.mu.Lock()
	th.t.handler[id] = d
	th.t.mu.Unlock()
}

func requestID(client, i int) string { return strconv.Itoa(client) + "/" + strconv.Itoa(i) }
