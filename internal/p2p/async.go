package p2p

import (
	"fmt"
	"math/rand"

	"repro/internal/dynamics"
	"repro/internal/graph"
)

// AsyncConfig drives RunAsync, the robustness variant of the swarm: message
// latency, loss, and peer churn — the failure modes BitTorrent's incentive
// design is praised for tolerating (Cohen [10]; Feldman et al. [12]). Peers
// keep the last offer heard from each neighbor and respond proportionally
// to that view, so the protocol degrades gracefully instead of dividing by
// silence.
type AsyncConfig struct {
	// Rounds is the number of protocol rounds (default 200).
	Rounds int
	// MaxDelay is the maximum message latency in rounds; each message is
	// delivered after a uniform delay in [1, MaxDelay] (≤ 1 = synchronous).
	MaxDelay int
	// DropRate is the iid probability that a message is lost in transit.
	DropRate float64
	// ChurnRate is the per-round probability that an online peer goes
	// offline; an offline peer stays silent for OfflineRounds rounds
	// (default 10) and then rejoins with its last state.
	ChurnRate     float64
	OfflineRounds int
	// Seed makes the latency/loss/churn draws reproducible.
	Seed int64
	// TrackAgents lists agents whose perceived utility history to record.
	TrackAgents []int
}

// AsyncResult is the outcome of an asynchronous swarm run.
type AsyncResult struct {
	// Utilities is each agent's perceived utility (sum of the freshest
	// offers heard from each neighbor) after the final round.
	Utilities []float64
	// History[i] tracks cfg.TrackAgents[i]'s perceived utility per round.
	History [][]float64
	// Delivered and Dropped count messages.
	Delivered, Dropped int64
	// OfflineEvents counts churn departures.
	OfflineEvents int
}

// RunAsync executes the proportional response protocol under message delay,
// loss, and churn. Unlike Run it is sequential — the adversarial scheduler
// is the object of study, not throughput — and fully deterministic per seed.
func RunAsync(g *graph.Graph, cfg AsyncConfig) (*AsyncResult, error) {
	n := g.N()
	if n == 0 {
		return nil, fmt.Errorf("p2p: empty swarm")
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 200
	}
	if cfg.MaxDelay < 1 {
		cfg.MaxDelay = 1
	}
	if cfg.DropRate < 0 || cfg.DropRate >= 1 {
		return nil, fmt.Errorf("p2p: drop rate %v outside [0, 1)", cfg.DropRate)
	}
	if cfg.ChurnRate < 0 || cfg.ChurnRate >= 1 {
		return nil, fmt.Errorf("p2p: churn rate %v outside [0, 1)", cfg.ChurnRate)
	}
	if cfg.OfflineRounds <= 0 {
		cfg.OfflineRounds = 10
	}
	for _, v := range cfg.TrackAgents {
		if v < 0 || v >= n {
			return nil, fmt.Errorf("p2p: tracked agent %d out of range", v)
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	w := make([]float64, n)
	for v := 0; v < n; v++ {
		w[v] = g.Weight(v).Float64()
	}
	// rev[v][j]: position of v in the adjacency of its j-th neighbor, so
	// deliveries land in the right slot. lastKnown[v][j]: the freshest
	// offer v has heard from its j-th neighbor, seeded with that neighbor's
	// response to silence (the equal split) so nobody divides by silence.
	// out holds one peer's response.
	rev := g.ReverseIndex()
	lastKnown := make([][]float64, n)
	for v := 0; v < n; v++ {
		lastKnown[v] = make([]float64, g.Degree(v))
	}
	out, silence := make([]float64, n), make([]float64, n)
	for v := 0; v < n; v++ {
		d := g.Degree(v)
		dynamics.Respond(out[:d], silence[:d], w[v])
		for j, u := range g.Neighbors(v) {
			lastKnown[u][rev[v][j]] = out[j]
		}
	}

	type delivery struct {
		to, slot int
		amount   float64
	}
	// future[r % (MaxDelay+1)] holds deliveries scheduled for round r.
	future := make([][]delivery, cfg.MaxDelay+1)
	offlineUntil := make([]int, n)

	res := &AsyncResult{
		Utilities: make([]float64, n),
		History:   make([][]float64, len(cfg.TrackAgents)),
	}
	// perceived[v] is the sum of v's view, which Respond returns.
	perceived := res.Utilities

	for round := 0; round < cfg.Rounds; round++ {
		// Deliver everything scheduled for this round.
		slot := round % (cfg.MaxDelay + 1)
		for _, d := range future[slot] {
			lastKnown[d.to][d.slot] = d.amount
			res.Delivered++
		}
		future[slot] = future[slot][:0]

		// Churn.
		for v := 0; v < n; v++ {
			if offlineUntil[v] <= round && cfg.ChurnRate > 0 && rng.Float64() < cfg.ChurnRate {
				offlineUntil[v] = round + cfg.OfflineRounds
				res.OfflineEvents++
			}
		}

		// Every peer sums its view; online peers answer it proportionally.
		for v := 0; v < n; v++ {
			offers := out[:len(lastKnown[v])]
			perceived[v] = dynamics.Respond(offers, lastKnown[v], w[v])
			if offlineUntil[v] > round {
				continue
			}
			for j, u := range g.Neighbors(v) {
				if cfg.DropRate > 0 && rng.Float64() < cfg.DropRate {
					res.Dropped++
					continue
				}
				delay := 1
				if cfg.MaxDelay > 1 {
					delay = 1 + rng.Intn(cfg.MaxDelay)
				}
				at := (round + delay) % (cfg.MaxDelay + 1)
				future[at] = append(future[at], delivery{
					to:     u,
					slot:   rev[v][j],
					amount: offers[j],
				})
			}
		}
		for i, v := range cfg.TrackAgents {
			res.History[i] = append(res.History[i], perceived[v])
		}
	}
	return res, nil
}
