package main

import (
	"math/rand"
	"net/url"
	"runtime"
	"sort"
	"strings"

	"uopsinfo/internal/uarch"
)

// isaFamilies are the core families the isa-* workloads draw from: the
// 5-port Nehalem cores, the 6-port Sandy Bridge cores, and the 8-port
// Haswell and Skylake cores. The seed picks one generation of each, so every
// run covers every port layout. Within a family the generations cost about
// the same to characterize; Haswell-class cores cost about a quarter more
// than Skylake-class ones, so lumping the 8-port cores into one family made
// the seed's pick swing the latency metrics by that much.
var isaFamilies = [][]uarch.Generation{
	{uarch.Nehalem, uarch.Westmere},
	{uarch.SandyBridge, uarch.IvyBridge},
	{uarch.Haswell, uarch.Broadwell},
	{uarch.Skylake, uarch.KabyLake, uarch.CoffeeLake},
}

// serveFamilies are the families serve-mix draws its two generations from.
// Within each family the whole-ISA documents are the same size to within a
// few percent, so the seed varies the served generations without moving the
// latency distribution the workload reports. The families were chosen for
// that steadiness, not from a record of which generations are requested.
var serveFamilies = [][]uarch.Generation{
	{uarch.SandyBridge, uarch.IvyBridge},
	{uarch.KabyLake, uarch.CoffeeLake},
}

// pickGenerations draws one generation from each family.
func pickGenerations(seed int64, families [][]uarch.Generation) []uarch.Generation {
	rng := rand.New(rand.NewSource(seed))
	gens := make([]uarch.Generation, len(families))
	for i, fam := range families {
		gens[i] = fam[rng.Intn(len(fam))]
	}
	return gens
}

// parallelism is the engine worker budget and the serve-mix client count:
// two, or fewer on a smaller machine.
func parallelism() int {
	return min(2, runtime.NumCPU())
}

// countWorkers is the engine worker budget of the traced repetition whose
// simulator counts a traced run reports. With more than one worker those
// counts can differ between runs of one seed by a few runs, because each
// worker fork measures its own chain-latency calibrations and variants go to
// whichever worker is free; with one worker they repeat exactly.
const countWorkers = 1

// reqKind classifies a serve-mix request; the per-class latencies are
// reported separately by the traced run.
type reqKind int

const (
	kindFull    reqKind = iota // whole-arch document, XML or JSON
	kindSubset                 // ?only= subset of cached variants
	kindSingle                 // one variant
	kindNotMod                 // conditional GET expecting 304
	kindMetrics                // /metrics scrape
	numKinds
)

var kindNames = [numKinds]string{"full", "subset", "single", "notmod", "metrics"}

func (k reqKind) String() string { return kindNames[k] }

// request is one planned serve-mix request.
type request struct {
	kind reqKind
	gen  uarch.Generation
	// path is the request URI (path and query).
	path string
	// xml is set for whole-arch XML documents, whose bodies are compared
	// against the CLI-path rendering.
	xml bool
	// variants is how many variants a 200 body carries.
	variants int
	// prev, for kindNotMod, indexes the earlier request in the same
	// client's plan whose ETag is sent in If-None-Match.
	prev int
}

// The request mix, in percent. It is an assumption: the repository holds no
// record of uopsd traffic to derive it from, and the shares should be
// replaced by measured ones once a request log is committed. They were
// chosen so:
//   - whole documents (26%) are what a results-file user fetches. They are
//     the slowest class and far more than 1% of requests, so the 99th
//     percentile falls inside this class;
//   - subsets (34%) are the largest class, so that with the cheaper classes
//     below it (38%) the median falls inside it too. A percentile on the
//     boundary between two classes jumps between them from seed to seed;
//     that, not any traffic, is why the shares put it inside a class;
//   - single variants (20%) and conditional GETs (18%) stand for lookups
//     and revalidations by clients that already hold a document;
//   - /metrics scrapes (2%) are rare next to user requests.
var mixPercent = [numKinds]int{
	kindFull:    26,
	kindSubset:  34,
	kindSingle:  20,
	kindNotMod:  18,
	kindMetrics: 2,
}

// xmlShareOfFull is the percentage of whole-arch documents requested as XML;
// the rest are JSON. Also an assumption: XML is the results-file format the
// CLI writes, so it is taken to be the more common one.
const xmlShareOfFull = 70

const (
	subsetsPerGen = 8  // distinct ?only= subsets per generation
	singlesPerGen = 16 // distinct single variants per generation
	subsetMin     = 4
	subsetMax     = 16
)

// genPath is the URL path segment of a generation ("kaby-lake").
func genPath(gen uarch.Generation) string {
	return strings.ToLower(strings.ReplaceAll(gen.String(), " ", "-"))
}

// servePlan builds each client's request sequence from the seed. Every
// variant a request names belongs to the warmed generations, so no request
// is cold.
func servePlan(seed int64, gens []uarch.Generation, clients, perClient int) ([][]request, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x5e17e))
	type pools struct {
		subsets [][]string
		singles []string
		total   int
	}
	genPools := make([]pools, len(gens))
	for i, gen := range gens {
		arch, err := uarch.Lookup(gen)
		if err != nil {
			return nil, err
		}
		instrs := arch.InstrSet().Instrs()
		p := pools{total: len(instrs)}
		for s := 0; s < subsetsPerGen; s++ {
			// Sizes are spread evenly over [subsetMin, subsetMax], the same
			// for every seed; the seed picks the variants.
			k := subsetMin + s*(subsetMax-subsetMin)/(subsetsPerGen-1)
			names := make([]string, 0, k)
			for _, j := range rng.Perm(len(instrs))[:k] {
				names = append(names, instrs[j].Name)
			}
			sort.Strings(names)
			p.subsets = append(p.subsets, names)
		}
		for _, j := range rng.Perm(len(instrs))[:singlesPerGen] {
			p.singles = append(p.singles, instrs[j].Name)
		}
		genPools[i] = p
	}

	plans := make([][]request, clients)
	for c := range plans {
		plan := make([]request, 0, perClient)
		var deck []reqKind
		for len(plan) < perClient {
			if len(deck) == 0 {
				deck = shuffledMix(rng)
			}
			kind := deck[0]
			deck = deck[1:]
			g := rng.Intn(len(gens))
			gen, p := gens[g], genPools[g]
			base := "/v1/arch/" + genPath(gen)
			r := request{kind: kind, gen: gen}
			switch r.kind {
			case kindFull:
				r.variants = p.total
				if rng.Intn(100) < xmlShareOfFull {
					r.path, r.xml = base+"?format=xml", true
				} else {
					r.path = base
				}
			case kindSubset:
				names := p.subsets[rng.Intn(len(p.subsets))]
				r.path = base + "?only=" + url.QueryEscape(strings.Join(names, ",")) + "&format=xml"
				r.variants = len(names)
			case kindSingle:
				r.path = base + "/variant/" + p.singles[rng.Intn(len(p.singles))]
				r.variants = 1
			case kindNotMod:
				prev := earlierCacheable(rng, plan)
				if prev < 0 {
					continue // nothing to revalidate yet: skip the card
				}
				r.gen, r.path, r.prev = plan[prev].gen, plan[prev].path, prev
			case kindMetrics:
				r.path = "/metrics"
			}
			plan = append(plan, r)
		}
		plans[c] = plan
	}
	return plans, nil
}

// shuffledMix returns 100 request kinds, mixPercent[k] of kind k, in seeded
// order. Each client draws its requests from successive decks, so every run
// carries close to the planned mix: with independent draws, the share of
// conditional GETs in a run's 550-700 requests ranged from 15 % to 20 % over
// ten seeds, and req_p50_ms moved with it.
func shuffledMix(rng *rand.Rand) []reqKind {
	deck := make([]reqKind, 0, 100)
	for k, n := range mixPercent {
		for i := 0; i < n; i++ {
			deck = append(deck, reqKind(k))
		}
	}
	rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	return deck
}

// earlierCacheable picks a random earlier document request of the plan (one
// that returns an ETag), or -1 if there is none.
func earlierCacheable(rng *rand.Rand, plan []request) int {
	if len(plan) == 0 {
		return -1
	}
	start := rng.Intn(len(plan))
	for i := 0; i < len(plan); i++ {
		j := (start + i) % len(plan)
		switch plan[j].kind {
		case kindFull, kindSubset, kindSingle:
			return j
		}
	}
	return -1
}
