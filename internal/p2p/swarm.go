// Package p2p simulates the motivating system of the paper's introduction:
// a BitTorrent-style peer-to-peer swarm in which every agent runs the
// proportional response protocol over real message passing.
//
// Unlike package dynamics (which iterates eq. (1) as a numeric recurrence),
// this package executes the protocol the way a deployed network would: one
// mailbox per peer, one offer message per edge per round, concurrent sends
// from every peer's goroutine, and per-round aggregation of whatever
// arrived. A Sybil attack is executed by actually splitting the attacker
// into identities at the network level (graph.Split) and letting the swarm
// run — the defense-relevant quantity is how much the combined identities
// harvest compared to the honest run (experiment E14).
//
// Determinism: received offers are sorted by sender id into adjacency
// order and answered by dynamics.Respond, the recurrence's own step, so
// results are bit-identical across runs and match package dynamics by
// construction.
package p2p

import (
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/dynamics"
	"repro/internal/graph"
	"repro/internal/par"
)

// offer is one protocol message: From shares Amount with the receiver this
// round.
type offer struct {
	From   int
	Amount float64
}

// Config tunes a swarm run.
type Config struct {
	// Rounds is the number of protocol rounds to execute (default 200).
	Rounds int
	// TrackAgents lists agents whose utility history should be recorded.
	TrackAgents []int
	// Workers bounds the goroutines per phase (≤ 0 = GOMAXPROCS).
	Workers int
	// FreeRiders lists agents that deviate by never contributing: they
	// post zero offers every round while still collecting whatever arrives.
	// Tit-for-tat starves them — their income decays geometrically and the
	// rest of the swarm re-converges to the equilibrium of the network in
	// which their weight is zero (Cohen [10]; Jun & Ahamad [13]).
	FreeRiders []int
}

// Result is the outcome of a swarm run.
type Result struct {
	// Utilities is each agent's utility in the final round.
	Utilities []float64
	// History[i] is the tracked agent i's utility per round (aligned with
	// Config.TrackAgents).
	History [][]float64
	// Messages is the total number of protocol messages delivered.
	Messages int64
	// Rounds is the number of executed rounds.
	Rounds int
}

// Run executes the proportional response protocol on g as a message-passing
// swarm.
func Run(g *graph.Graph, cfg Config) (*Result, error) {
	n := g.N()
	if n == 0 {
		return nil, fmt.Errorf("p2p: empty swarm")
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 200
	}
	for _, v := range cfg.TrackAgents {
		if v < 0 || v >= n {
			return nil, fmt.Errorf("p2p: tracked agent %d out of range", v)
		}
	}
	freeRider := make([]bool, n)
	for _, v := range cfg.FreeRiders {
		if v < 0 || v >= n {
			return nil, fmt.Errorf("p2p: free rider %d out of range", v)
		}
		freeRider[v] = true
	}

	w := make([]float64, n)
	for v := 0; v < n; v++ {
		w[v] = g.Weight(v).Float64()
	}
	// Mailboxes sized for one round of traffic, and got[v] for v's drained
	// one. x[v][j] is v's current offer to its j-th neighbor; once sent, the
	// row takes what v received and Respond answers it in place. Before the
	// first round it answers silence: the equal split.
	inbox := make([]chan offer, n)
	x := make([][]float64, n)
	got := make([][]offer, n)
	for v := 0; v < n; v++ {
		d := g.Degree(v)
		inbox[v] = make(chan offer, d)
		x[v] = make([]float64, d)
		got[v] = make([]offer, d)
		dynamics.Respond(x[v], x[v], w[v])
	}

	res := &Result{
		Utilities: make([]float64, n),
		History:   make([][]float64, len(cfg.TrackAgents)),
		Rounds:    cfg.Rounds,
	}
	var messages atomic.Int64

	for round := 0; round < cfg.Rounds; round++ {
		// Send phase: every peer posts this round's offers concurrently;
		// free riders post zeros (they stay protocol-compliant on the wire,
		// just contribute nothing).
		par.ForEach(n, cfg.Workers, func(v int) {
			for j, u := range g.Neighbors(v) {
				amount := x[v][j]
				if freeRider[v] {
					amount = 0
				}
				inbox[u] <- offer{From: v, Amount: amount}
				messages.Add(1)
			}
		})
		// Receive phase: every peer drains its mailbox, aggregates
		// deterministically, and prepares the proportional response.
		par.ForEach(n, cfg.Workers, func(v int) {
			received := got[v]
			for k := range received {
				received[k] = <-inbox[v]
			}
			sort.Slice(received, func(i, j int) bool { return received[i].From < received[j].From })
			// Neighbors(v) is sorted, and so is received — align them.
			for j, o := range received {
				if o.From != g.Neighbors(v)[j] {
					panic("p2p: mailbox received an offer from a non-neighbor")
				}
				x[v][j] = o.Amount
			}
			res.Utilities[v] = dynamics.Respond(x[v], x[v], w[v])
		})
		for i, v := range cfg.TrackAgents {
			res.History[i] = append(res.History[i], res.Utilities[v])
		}
	}
	res.Messages = messages.Load()
	return res, nil
}

// AttackComparison contrasts an honest run with a Sybil run on the same
// swarm.
type AttackComparison struct {
	Honest *Result
	Sybil  *Result
	// HonestUtility is the attacker's utility in the honest run;
	// SybilUtility is the combined utility of its identities.
	HonestUtility, SybilUtility float64
	// Gain = SybilUtility / HonestUtility.
	Gain float64
	// Identities are the attacker's node ids in the Sybil swarm.
	Identities []int
}

// CompareAttack runs the swarm honestly and under the given Sybil split and
// reports the attacker's empirical gain.
func CompareAttack(g *graph.Graph, spec graph.SplitSpec, cfg Config) (*AttackComparison, error) {
	honest, err := Run(g, cfg)
	if err != nil {
		return nil, err
	}
	gp, ids, err := graph.Split(g, spec)
	if err != nil {
		return nil, err
	}
	sybilCfg := cfg
	sybilCfg.TrackAgents = append([]int(nil), ids...)
	sybil, err := Run(gp, sybilCfg)
	if err != nil {
		return nil, err
	}
	cmp := &AttackComparison{
		Honest:        honest,
		Sybil:         sybil,
		HonestUtility: honest.Utilities[spec.V],
		Identities:    ids,
	}
	for _, id := range ids {
		cmp.SybilUtility += sybil.Utilities[id]
	}
	if cmp.HonestUtility > 0 {
		cmp.Gain = cmp.SybilUtility / cmp.HonestUtility
	} else if cmp.SybilUtility == 0 {
		cmp.Gain = 1
	}
	return cmp, nil
}
