package maxflow

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/numeric"
)

// solveRatDinic runs the numeric.Rat Dinic on nw whatever its admission: the
// reference every fixed-width solve must reproduce.
func solveRatDinic(nw *Network) numeric.Rat {
	nw.pushes, nw.solved, nw.fixed = 0, true, false
	nw.prepare()
	return nw.dinic()
}

// testArc is one arc of a generated network; den == 0 marks Inf.
type testArc struct {
	u, v     int
	num, den int64
}

func (a testArc) cap() Cap {
	if a.den == 0 {
		return Inf
	}
	return Finite(numeric.New(a.num, a.den))
}

func buildTestNetwork(n int, arcs []testArc) (*Network, []int) {
	nw := NewNetwork(n, 0, n-1)
	ids := make([]int, len(arcs))
	for i, a := range arcs {
		ids[i] = nw.AddEdge(a.u, a.v, a.cap())
	}
	return nw, ids
}

// wantAdmitted decides admission independently in math/big: every finite
// capacity's parts fit int64, L = lcm of their denominators fits int64, and
// (1+k)·L·(1 + Σ c_i) < 2^126 with k the Inf arcs leaving the source.
func wantAdmitted(nw *Network) bool {
	l := big.NewInt(1)
	sum := new(big.Rat).SetInt64(1)
	k := int64(1)
	for i := 0; i < len(nw.arcs); i += 2 {
		a := nw.arcs[i]
		if a.inf {
			if nw.arcs[i+1].to == nw.s {
				k++
			}
			continue
		}
		if _, _, ok := a.cap.Int64Parts(); !ok {
			return false
		}
		d := a.cap.Denom()
		g := new(big.Int).GCD(nil, nil, l, d)
		l.Mul(l, new(big.Int).Quo(d, g))
		sum.Add(sum, new(big.Rat).SetFrac(a.cap.Num(), d))
	}
	if !l.IsInt64() {
		return false
	}
	bound := new(big.Rat).Mul(sum, new(big.Rat).SetInt(new(big.Int).Mul(l, big.NewInt(k))))
	return bound.Cmp(new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(1), numeric.FixedBits))) < 0
}

// checkFixedAgainstRat solves two copies of one network, one with Solve and
// one with the numeric.Rat Dinic, and requires the same admission decision
// as wantAdmitted and — arc by arc — the same answer: value, every flow,
// push count and both min-cut sides. It returns whether Solve ran fixed.
func checkFixedAgainstRat(t *testing.T, n int, arcs []testArc) bool {
	t.Helper()
	got, ids := buildTestNetwork(n, arcs)
	ref, _ := buildTestNetwork(n, arcs)
	vGot := got.Solve(Dinic)
	vRef := solveRatDinic(ref)
	if want := wantAdmitted(got); got.fixed != want {
		t.Fatalf("admitted=%v, want %v (arcs %v)", got.fixed, want, arcs)
	}
	if vGot.String() != vRef.String() {
		t.Fatalf("fixed=%v: value %v != Rat %v (arcs %v)", got.fixed, vGot, vRef, arcs)
	}
	for i, id := range ids {
		if f, w := got.Flow(id), ref.Flow(id); f.String() != w.String() {
			t.Fatalf("fixed=%v: arc %d %v flow %v != Rat %v", got.fixed, i, arcs[i], f, w)
		}
	}
	if got.Pushes() != ref.Pushes() {
		t.Fatalf("fixed=%v: %d pushes != Rat %d", got.fixed, got.Pushes(), ref.Pushes())
	}
	for _, maximal := range []bool{false, true} {
		g, w := got.MinCutSourceSide(maximal), ref.MinCutSourceSide(maximal)
		for v := range w {
			if g[v] != w[v] {
				t.Fatalf("fixed=%v maximal=%v: cut side differs at node %d", got.fixed, maximal, v)
			}
		}
	}
	if err := got.CheckConservation(); err != nil {
		t.Fatalf("fixed=%v: %v", got.fixed, err)
	}
	return got.fixed
}

// fuzzCap decodes one biased int64 from a selector byte and eight raw bytes,
// leaning toward 0, 1, 2^31±1, 2^62, 2^63−1 and the 2^48 scale of bisection
// dust (k/2^48).
func fuzzCap(sel byte, raw uint64) int64 {
	v := int64(raw >> 1) // non-negative
	switch sel % 8 {
	case 1:
		return 0
	case 2:
		return 1
	case 3:
		return 1<<31 - 1 + v%3 // 2^31−1 … 2^31+1
	case 4:
		return 1<<62 + v%2
	case 5:
		return math.MaxInt64 - v%4
	case 6:
		return 1 << 48
	case 7:
		return v % (1 << 48) // a dust numerator k of k/2^48
	}
	return v
}

// decodeFuzzNetwork reads a node count (3–16) from the first byte, then
// arcs of 3 header bytes (tail, head, kind) followed, for a finite kind, by
// two 9-byte numerator/denominator values; one kind in four is Inf.
func decodeFuzzNetwork(data []byte) (int, []testArc) {
	if len(data) == 0 {
		return 0, nil
	}
	n := 3 + int(data[0])%14
	data = data[1:]
	var arcs []testArc
	for len(data) >= 3 && len(arcs) < 48 {
		a := testArc{u: int(data[0]) % n, v: int(data[1]) % n}
		kind := data[2]
		data = data[3:]
		if kind%4 != 0 {
			if len(data) < 18 {
				break
			}
			a.num = fuzzCap(data[0], binary.LittleEndian.Uint64(data[1:9]))
			a.den = fuzzCap(data[9], binary.LittleEndian.Uint64(data[10:18]))
			if a.den == 0 {
				a.den = 1
			}
			data = data[18:]
		}
		arcs = append(arcs, a)
	}
	return n, arcs
}

// encodeFuzzNetwork is the inverse of decodeFuzzNetwork for raw values
// (selector 0 keeps value>>1, so values are stored doubled).
func encodeFuzzNetwork(n int, arcs []testArc) []byte {
	out := []byte{byte(n - 3)}
	put := func(v int64) {
		out = append(out, 0)
		out = binary.LittleEndian.AppendUint64(out, uint64(v)<<1)
	}
	for _, a := range arcs {
		if a.den == 0 {
			out = append(out, byte(a.u), byte(a.v), 0)
			continue
		}
		out = append(out, byte(a.u), byte(a.v), 1)
		put(a.num)
		put(a.den)
	}
	return out
}

// boundEdge returns a 4-node network whose scaled Inf capacity
// L·(1 + Σ c_i), L = 2^62, is 2^126 − 2 (below the bound) or exactly 2^126
// (at it): two integer arcs of 2^63−1 and two dust arcs (2^61±1)/2^62.
func boundEdge(at bool) []testArc {
	dust := int64(1<<61 - 1)
	if at {
		dust = 1<<61 + 1
	}
	return []testArc{
		{0, 1, math.MaxInt64, 1},
		{0, 2, math.MaxInt64, 1},
		{1, 2, 0, 0},
		{1, 3, 1<<61 - 1, 1 << 62},
		{2, 3, dust, 1 << 62},
	}
}

// FuzzFixedWidthMaxflow referees the fixed-width Dinic against the
// numeric.Rat Dinic on networks of 3–16 nodes with Inf arcs and capacities
// at adversarial magnitudes: whenever the kernel admits a network, the
// value, every arc's flow, the push count and both min-cut sides must equal
// the rational run's, and the admission decision must match math/big.
func FuzzFixedWidthMaxflow(f *testing.F) {
	f.Add(encodeFuzzNetwork(4, boundEdge(false)))
	f.Add(encodeFuzzNetwork(4, boundEdge(true)))
	f.Add(encodeFuzzNetwork(5, []testArc{
		{0, 1, 3, 7}, {0, 2, 1 << 48, 1<<48 + 1}, {1, 3, 0, 0}, {2, 3, 0, 0}, {1, 2, 5, 2}, {3, 4, 9, 4}, {2, 4, 1<<31 + 1, 1},
	}))
	f.Add(encodeFuzzNetwork(6, []testArc{
		{0, 1, 1, 3}, {0, 2, 2, 3}, {1, 3, 0, 0}, {1, 4, 0, 0}, {2, 4, 0, 0}, {3, 5, 1, 1}, {4, 5, 1, 2}, {0, 5, 0, 1},
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		n, arcs := decodeFuzzNetwork(data)
		if n == 0 {
			return
		}
		checkFixedAgainstRat(t, n, arcs)
	})
}

// TestFixedWidthMaxflowAdmission pins the admission rule on both sides of
// the 2^126 bound, with a capacity whose parts are off int64, with a common
// denominator past int64, and with an Inf arc leaving the source (which
// doubles the bound on the flow value); each network is also refereed
// against the numeric.Rat Dinic.
func TestFixedWidthMaxflowAdmission(t *testing.T) {
	if !checkFixedAgainstRat(t, 4, boundEdge(false)) {
		t.Fatal("2^126 − 2 rejected")
	}
	if checkFixedAgainstRat(t, 4, boundEdge(true)) {
		t.Fatal("2^126 admitted")
	}
	// L past int64: lcm(2^63−1, 2^63−2).
	if checkFixedAgainstRat(t, 3, []testArc{{0, 1, 1, math.MaxInt64}, {1, 2, 1, math.MaxInt64 - 1}}) {
		t.Fatal("common denominator past int64 admitted")
	}
	// k = 1: with an Inf arc leaving the source the flow value may reach
	// 2·L·(1 + Σ c_i) = 2·(2^126 − 2^61 − 1).
	srcInf := []testArc{{0, 1, math.MaxInt64, 1}, {2, 3, math.MaxInt64, 1}, {1, 3, 1<<61 - 1, 1 << 62}, {0, 2, 0, 0}}
	if checkFixedAgainstRat(t, 4, srcInf) {
		t.Fatal("Inf source arc past the bound admitted")
	}
	if !checkFixedAgainstRat(t, 4, srcInf[:3]) {
		t.Fatal("2^126 − 2^61 − 1 rejected")
	}
	if !checkFixedAgainstRat(t, 3, []testArc{{0, 1, 0, 0}, {1, 2, 3, 2}}) {
		t.Fatal("Inf source arc below the bound rejected")
	}
	// A capacity with parts off int64 (2^70/3).
	nw := NewNetwork(3, 0, 2)
	huge := numeric.FromBig(new(big.Rat).SetFrac(new(big.Int).Lsh(big.NewInt(1), 70), big.NewInt(3)))
	nw.AddEdge(0, 1, Finite(huge))
	mid := nw.AddEdge(1, 2, Finite(numeric.New(5, 2)))
	if v := nw.Solve(Dinic); nw.fixed || !v.Equal(numeric.New(5, 2)) || !nw.Flow(mid).Equal(v) {
		t.Fatalf("off-int64 capacity: fixed=%v value %v", nw.fixed, v)
	}
	if wantAdmitted(nw) != nw.fixed {
		t.Fatal("reference admission disagrees")
	}
}

// TestFixedWidthMatchesRatOnRandomNetworks referees random networks with
// rational and Inf capacities against the numeric.Rat Dinic; every tenth
// one carries two dust arcs whose common denominator is past int64, so it
// must run on rationals.
func TestFixedWidthMatchesRatOnRandomNetworks(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	fixed := 0
	for trial := 0; trial < 300; trial++ {
		n := 3 + rng.Intn(10)
		var arcs []testArc
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u == v || rng.Float64() > 0.4 {
					continue
				}
				a := testArc{u: u, v: v, num: int64(rng.Intn(20)), den: int64(1 + rng.Intn(12))}
				if rng.Intn(5) == 0 {
					a.den = 0
				}
				arcs = append(arcs, a)
			}
		}
		if trial%10 == 0 {
			arcs = append(arcs,
				testArc{rng.Intn(n), rng.Intn(n), 1, math.MaxInt64},
				testArc{rng.Intn(n), rng.Intn(n), 1, math.MaxInt64 - 1})
		}
		if checkFixedAgainstRat(t, n, arcs) {
			fixed++
		}
	}
	if fixed != 270 {
		t.Fatalf("%d of 300 random networks ran fixed-width, want 270", fixed)
	}
}

// TestSetCapacityInvalidatesSolve checks that a capacity change is seen by
// the next solve exactly as a rebuild would see it, that the previous
// solve's flows are not readable in between, and that a re-solve can move
// between the two arithmetics.
func TestSetCapacityInvalidatesSolve(t *testing.T) {
	nw, ids := buildDiamond()
	if v := nw.Solve(Dinic); !nw.fixed || !v.Equal(numeric.FromInt(5)) {
		t.Fatalf("diamond: fixed=%v value %v", nw.fixed, v)
	}
	nw.SetCapacity(ids[0], Finite(numeric.New(1, 3)))
	for name, read := range map[string]func(){
		"Flow":             func() { nw.Flow(ids[0]) },
		"MinCutSourceSide": func() { nw.MinCutSourceSide(true) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s after SetCapacity did not panic", name)
				}
			}()
			read()
		}()
	}
	if nw.CheckConservation() == nil {
		t.Error("CheckConservation accepted a stale solve")
	}
	// 1/3 + 2 through the diamond; a rebuild must agree arc by arc.
	want, _ := buildTestNetwork(4, []testArc{{0, 1, 1, 3}, {0, 2, 2, 1}, {1, 2, 1, 1}, {1, 3, 2, 1}, {2, 3, 3, 1}})
	v, w := nw.Solve(Dinic), want.Solve(Dinic)
	if !v.Equal(w) || !v.Equal(numeric.New(7, 3)) || nw.Pushes() != want.Pushes() {
		t.Fatalf("after SetCapacity: value %v (rebuilt %v), pushes %d (rebuilt %d)", v, w, nw.Pushes(), want.Pushes())
	}
	for _, id := range ids {
		if !nw.Flow(id).Equal(want.Flow(id)) {
			t.Fatalf("arc %d: flow %v != rebuilt %v", id, nw.Flow(id), want.Flow(id))
		}
	}
	// Past the bound the same network re-solves on rationals, then back.
	nw.SetCapacity(ids[2], Finite(numeric.New(1, math.MaxInt64)))
	nw.SetCapacity(ids[3], Finite(numeric.New(2, math.MaxInt64-1)))
	if nw.Solve(Dinic); nw.fixed {
		t.Fatal("common denominator past int64 admitted after SetCapacity")
	}
	if err := nw.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	nw.SetCapacity(ids[2], Inf)
	nw.SetCapacity(ids[3], Finite(numeric.FromInt(2)))
	if v := nw.Solve(Dinic); !nw.fixed || !v.Equal(numeric.New(7, 3)) {
		t.Fatalf("back below the bound: fixed=%v value %v", nw.fixed, v)
	}
	if err := nw.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}
