package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"uopsinfo/internal/core"
	"uopsinfo/internal/iaca"
	"uopsinfo/internal/uarch"
	"uopsinfo/internal/xmlout"
)

// tally counts the operations a run attempted and the ones that failed,
// keeping the first few failure messages for the report.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	errs      []string
}

const maxReportedErrors = 10

// op records one operation; a non-nil err marks it failed. It reports
// whether the operation succeeded.
func (t *tally) op(err error) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err == nil {
		return true
	}
	t.failed++
	if len(t.errs) < maxReportedErrors {
		t.errs = append(t.errs, err.Error())
	}
	return false
}

func (t *tally) counts() (attempted, failed int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attempted, t.failed
}

type digest [sha256.Size]byte

func digestOf(b []byte) digest { return sha256.Sum256(b) }

func (d digest) String() string { return hex.EncodeToString(d[:]) }

// renderXML renders one generation's result exactly as cmd/uopsinfo writes
// its results file: the generation's IACA analyzers, xmlout.FromArchResult
// and xmlout.Write. With a tracer, the conversion and write are timed as the
// xmlout layer.
func renderXML(arch *uarch.Arch, res *core.ArchResult, tr *tracer) ([]byte, error) {
	analyzers, err := iacaAnalyzers(arch)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	var buf bytes.Buffer
	if err := xmlout.Write(&buf, xmlout.Single(xmlout.FromArchResult(res, analyzers))); err != nil {
		return nil, fmt.Errorf("rendering %s: %w", arch.Name(), err)
	}
	if tr != nil {
		tr.renderNs.Add(int64(time.Since(start)))
		tr.renderBytes.Add(int64(buf.Len()))
	}
	return buf.Bytes(), nil
}

func iacaAnalyzers(arch *uarch.Arch) ([]*iaca.Analyzer, error) {
	var analyzers []*iaca.Analyzer
	for _, v := range iaca.SupportedVersions(arch.Gen()) {
		a, err := iaca.New(v, arch)
		if err != nil {
			return nil, err
		}
		analyzers = append(analyzers, a)
	}
	return analyzers, nil
}

// checkDoc checks a generation's whole-ISA XML: it parses back, holds
// exactly the generation's variants, and, on Skylake, carries the known
// anchors (ADD_R64_R64 is 1*p0156 with throughput 0.25; IMUL_R64_R64 has an
// op1→op1 latency of 3).
func checkDoc(arch *uarch.Arch, doc []byte) error {
	parsed, err := xmlout.Read(bytes.NewReader(doc))
	if err != nil {
		return fmt.Errorf("%s: %w", arch.Name(), err)
	}
	if len(parsed.Architectures) != 1 || parsed.Architectures[0].Name != arch.Name() {
		return fmt.Errorf("%s: document does not hold exactly that architecture", arch.Name())
	}
	a := parsed.Architectures[0]
	present := make(map[string]*xmlout.Instruction, len(a.Instructions))
	for i := range a.Instructions {
		present[a.Instructions[i].Name] = &a.Instructions[i]
	}
	instrs := arch.InstrSet().Instrs()
	if len(present) != len(instrs) {
		return fmt.Errorf("%s: %d variants in the document, want %d", arch.Name(), len(present), len(instrs))
	}
	for _, in := range instrs {
		if present[in.Name] == nil {
			return fmt.Errorf("%s: variant %s missing", arch.Name(), in.Name)
		}
	}
	if arch.Gen() != uarch.Skylake {
		return nil
	}
	add := present["ADD_R64_R64"]
	if m := add.Measured; m == nil || m.Ports != "1*p0156" || m.TPMeasured != 0.25 {
		return fmt.Errorf("Skylake ADD_R64_R64: got %+v, want ports 1*p0156 and tpMeasured 0.25", add.Measured)
	}
	imul := present["IMUL_R64_R64"]
	if imul.Measured == nil || !hasLatency(imul.Measured.Latencies, "op1", "op1", 3) {
		return fmt.Errorf("Skylake IMUL_R64_R64: no op1→op1 latency of 3 cycles")
	}
	return nil
}

func hasLatency(lats []xmlout.Latency, src, dst string, cycles float64) bool {
	for _, l := range lats {
		if l.Source == src && l.Dest == dst && l.Cycles == cycles && !l.SameReg {
			return true
		}
	}
	return false
}

// gtMismatches counts the fully characterized variants whose inferred port
// usage differs from the generation's ground-truth table, and how many
// variants were compared.
func gtMismatches(arch *uarch.Arch, res *core.ArchResult) (mismatches, compared int) {
	for _, in := range arch.InstrSet().Instrs() {
		r := res.Results[in.Name]
		if r == nil || r.Skipped != "" {
			continue
		}
		compared++
		if !r.Ports.Equal(core.GroundTruthUsage(arch.Perf(in))) {
			mismatches++
		}
	}
	return mismatches, compared
}

// resultsMismatches sums gtMismatches over several generations' results.
func resultsMismatches(results map[uarch.Generation]*core.ArchResult) (mismatches, compared int) {
	for gen, res := range results {
		arch, err := uarch.Lookup(gen)
		if err != nil {
			continue
		}
		m, c := gtMismatches(arch, res)
		mismatches += m
		compared += c
	}
	return mismatches, compared
}

// sameDigest reports a byte difference between two renderings of one thing.
func sameDigest(what string, got, want digest) error {
	if got != want {
		return fmt.Errorf("%s: sha256 %s, want %s", what, got, want)
	}
	return nil
}

// responseChecker checks serve-mix responses: whole-arch XML bodies must be
// byte-identical to the CLI-path rendering, every other document body must
// equal the first body returned for the same URL, conditional GETs must be
// answered 304 with an empty body, and /metrics must be an exposition.
type responseChecker struct {
	fullXML map[uarch.Generation]digest

	mu    sync.Mutex
	first map[string]digest
}

func newResponseChecker(fullXML map[uarch.Generation]digest) *responseChecker {
	return &responseChecker{fullXML: fullXML, first: make(map[string]digest)}
}

func (c *responseChecker) check(r request, status int, body []byte) error {
	switch r.kind {
	case kindNotMod:
		if status != http.StatusNotModified || len(body) != 0 {
			return fmt.Errorf("conditional GET %s: status %d with %d body bytes, want 304 and none", r.path, status, len(body))
		}
		return nil
	case kindMetrics:
		if status != http.StatusOK || !strings.Contains(string(body), "uopsd_http_requests_total") {
			return fmt.Errorf("GET %s: status %d, not a metrics exposition", r.path, status)
		}
		return nil
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %.200s", r.path, status, body)
	}
	d := digestOf(body)
	if r.xml {
		return sameDigest("GET "+r.path+" vs the CLI rendering", d, c.fullXML[r.gen])
	}
	c.mu.Lock()
	want, seen := c.first[r.path]
	if !seen {
		c.first[r.path] = d
	}
	c.mu.Unlock()
	if !seen {
		return nil
	}
	return sameDigest("GET "+r.path+" vs its first body", d, want)
}
