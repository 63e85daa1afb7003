package main

import (
	"fmt"
	"math/rand"

	"repro/client"
	"repro/internal/graph"
	"repro/internal/server"
)

// Every input of a run derives from --seed through the generators below, so
// one seed always yields the same corpus and the program under test sees
// only the generated requests. Warm-up inputs come from warmSeed in every
// run, so set-up time does not depend on the seed's draw.
const warmSeed int64 = -1

var dists = []struct {
	name string
	d    graph.WeightDist
}{{"uniform", graph.DistUniform}, {"skewed", graph.DistSkewed}, {"powers", graph.DistPowers}}

func wireRing(rng *rand.Rand, n int, d graph.WeightDist) client.Graph {
	ws := graph.RandomWeights(rng, n, d)
	ring := make([]string, n)
	for i, w := range ws {
		ring[i] = server.EncodeRat(w)
	}
	return client.Graph{Ring: ring}
}

// distinctRings draws rings until one has a canonical instance key not in
// seen, so no two requests of a corpus share a cache entry.
func distinctRing(rng *rand.Rand, seen map[string]bool, n int, d graph.WeightDist) client.Graph {
	for {
		g := wireRing(rng, n, d)
		key, err := server.PlacementKey(&g, "")
		if err != nil {
			panic(fmt.Sprintf("generated ring rejected: %v", err))
		}
		if !seen[key] {
			seen[key] = true
			return g
		}
	}
}

// ratio-cold: a fixed cycle of ring sizes from n=8 to n=64. Each slot fixes
// the size, the weight distribution (slot mod 3) and whether the request is
// certified (slot mod coldCertEvery), so every cycle holds the same mix and
// only the weights and the agent vary with the seed. A solve's cost follows
// the number of pieces of the agent's utility curve (1 to 13 at grid 16)
// more than n, so one request can cost 20 times another of the same size.
// Three quarters of the slots are rings of n=8, 12 and 16, each size meeting
// each distribution twice per cycle; one slot each goes to n=20, 24, 32, 40,
// 48 and 64. The small rings buy more requests per run, which evens that
// spread out, and a run's median falls among them and its p90 among the
// large ones.
var coldSizes = []int{
	8, 12, 16, 12, 16, 8, 16, 8, 12, 20, 24, 32,
	8, 12, 16, 12, 16, 8, 16, 8, 12, 40, 48, 64,
}

const (
	coldGrid      = 16
	coldCertEvery = 4
)

// coldCorpus returns the first count ratio-cold requests of seed, the
// first coldWarm of them the fixed warm-up: each for a distinct ring, every
// coldCertEvery-th one asking for a certificate.
func coldCorpus(seed int64, count int) []client.RatioRequest {
	warm, rng := rand.New(rand.NewSource(warmSeed)), rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	out := make([]client.RatioRequest, count)
	for i := range out {
		rng := rng
		if i < coldWarm {
			rng = warm
		}
		n, d := coldSizes[i%len(coldSizes)], dists[i%len(dists)].d
		out[i] = client.RatioRequest{
			Graph: distinctRing(rng, seen, n, d),
			V:     rng.Intn(n),
			Grid:  coldGrid,
			Cert:  i%coldCertEvery == coldCertEvery-1,
		}
	}
	return out
}

// routed-hot: a resident set of small rings, split between two clients.
const (
	hotRings   = 32
	hotClients = 2
	hotGrid    = 16
)

type hotInstance struct {
	graph client.Graph
	v     int
}

// hotSet returns the resident rings of seed: sizes cycle through n=5..8, so
// every seed serves the same mix of sizes and only weights and agents vary.
func hotSet(seed int64) []hotInstance {
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	out := make([]hotInstance, hotRings)
	for i := range out {
		n := 5 + i%4
		out[i] = hotInstance{graph: distinctRing(rng, seen, n, dists[i%len(dists)].d), v: rng.Intn(n)}
	}
	return out
}

// hotOp is one routed-hot request: instance index into the hot set, and
// whether it is a /v1/ratio (else /v1/decompose) call.
type hotOp struct {
	inst  int
	ratio bool
}

// hotStream yields client c's endless request sequence: alternating ratio
// and decompose calls over the client's own half of the hot set.
type hotStream struct {
	rng  *rand.Rand
	c, j int
}

func newHotStream(seed int64, c int) *hotStream {
	return &hotStream{rng: rand.New(rand.NewSource(seed*31 + int64(c) + 1)), c: c}
}

func (s *hotStream) next() hotOp {
	per := hotRings / hotClients
	op := hotOp{inst: s.c*per + s.rng.Intn(per), ratio: s.j%2 == 0}
	s.j++
	return op
}

// jobs-scan: three ksybil jobs for every topology job.
const (
	scanK           = 3
	scanKGrid       = 32
	scanTopoN       = 10
	scanTopoCount   = 2
	scanTopoGrid    = 12
	scanTopologyGap = 4 // every 4th job is a topology scan
)

var scanFamilies = []string{"tree", "barbell", "smallworld", "er"}

// scanCorpus returns the first count job specs of seed, the first scanWarm
// of them the fixed warm-up, all distinct.
func scanCorpus(seed int64, count int) []client.ScenarioRequest {
	warm, rng := rand.New(rand.NewSource(warmSeed)), rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	out := make([]client.ScenarioRequest, count)
	for i := range out {
		rng, topoSeed := rng, seed*1_000_000+int64(i)
		if i < scanWarm {
			rng, topoSeed = warm, warmSeed-int64(i)
		}
		if i%scanTopologyGap == scanTopologyGap-1 {
			out[i] = client.ScenarioRequest{
				Kind: "topology", Families: scanFamilies, Count: scanTopoCount,
				N: scanTopoN, Grid: scanTopoGrid, Seed: topoSeed, Dist: "uniform",
			}
			continue
		}
		n := 9 + i%scanTopologyGap // one ksybil ring each of n=9, 10 and 11 per mix unit
		out[i] = client.ScenarioRequest{
			Kind: "ksybil", Graph: distinctRing(rng, seen, n, graph.DistUniform),
			V: rng.Intn(n), K: scanK, Grid: scanKGrid,
		}
	}
	return out
}
