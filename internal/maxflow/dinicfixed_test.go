package maxflow

import (
	"encoding/binary"
	"fmt"
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

// testArc is one arc of a generated network; a nil c marks Inf.
type testArc struct {
	u, v int
	c    *big.Rat
}

// finArc is the finite arc u → v of capacity num/den; infArc the Inf one.
func finArc(u, v int, num, den int64) testArc { return testArc{u, v, big.NewRat(num, den)} }
func infArc(u, v int) testArc                 { return testArc{u: u, v: v} }

// finBig is the finite arc u → v of capacity num/den past int64.
func finBig(u, v int, num, den *big.Int) testArc {
	return testArc{u, v, new(big.Rat).SetFrac(num, den)}
}

func (a testArc) String() string {
	if a.c == nil {
		return fmt.Sprintf("%d→%d:inf", a.u, a.v)
	}
	return fmt.Sprintf("%d→%d:%s", a.u, a.v, a.c.RatString())
}

func (a testArc) cap() Cap {
	if a.c == nil {
		return Inf
	}
	return Finite(numeric.FromBig(a.c))
}

func buildTestNetwork(n int, arcs []testArc) (*Network, []int) {
	nw := NewNetwork(n, 0, n-1, len(arcs))
	ids := make([]int, len(arcs))
	for i, a := range arcs {
		ids[i] = nw.AddEdge(a.u, a.v, a.cap())
	}
	return nw, ids
}

// wantAdmitted decides admission independently in math/big:
// (1+k)·L·(1 + Σ c_i) < 2^126, with L the lcm of the finite capacities'
// denominators and k the Inf arcs leaving the source.
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
		d := a.cap.Denom()
		g := new(big.Int).GCD(nil, nil, l, d)
		l.Mul(l, new(big.Int).Quo(d, g))
		sum.Add(sum, new(big.Rat).SetFrac(a.cap.Num(), d))
	}
	bound := new(big.Rat).Mul(sum, new(big.Rat).SetInt(new(big.Int).Mul(l, big.NewInt(k))))
	return bound.Cmp(new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(1), numeric.FixedBits))) < 0
}

// checkFixedAgainstRat solves copies of one network with Solve and with
// the numeric.Rat Dinic and requires the same admission decision as
// wantAdmitted and — arc by arc — the same answer: value, every flow, push
// count and both min-cut sides. Both Dinic runs share one traversal, so it
// also solves the network with push–relabel and Edmonds–Karp, independent
// referees whose value and min-cut sides must match too, and audits every
// solve with CheckConservation. It returns whether Solve ran fixed.
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
	solved := map[string]*Network{"Dinic": got, "Rat Dinic": ref}
	for _, algo := range []Algorithm{PushRelabel, EdmondsKarp} {
		nw, _ := buildTestNetwork(n, arcs)
		if v := nw.Solve(algo); v.String() != vGot.String() {
			t.Fatalf("fixed=%v: value %v != %v %v (arcs %v)", got.fixed, vGot, algo, v, arcs)
		}
		solved[algo.String()] = nw
	}
	for name, nw := range solved {
		if err := nw.CheckConservation(); err != nil {
			t.Fatalf("fixed=%v: %s: %v", got.fixed, name, err)
		}
		for _, maximal := range []bool{false, true} {
			if g, w := got.MinCutSourceSide(maximal), nw.MinCutSourceSide(maximal); fmt.Sprint(g) != fmt.Sprint(w) {
				t.Fatalf("fixed=%v maximal=%v: cut side %v != %s %v (arcs %v)", got.fixed, maximal, g, name, w, arcs)
			}
		}
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

// fuzzValue is fuzzCap shifted left by 2·(sel>>3) bits, so numerators and
// denominators reach 2^125 and their lcm well past 2^126.
func fuzzValue(sel byte, raw uint64) *big.Int {
	return new(big.Int).Lsh(big.NewInt(fuzzCap(sel, raw)), 2*uint(sel>>3))
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
		a := infArc(int(data[0])%n, int(data[1])%n)
		kind := data[2]
		data = data[3:]
		if kind%4 != 0 {
			if len(data) < 18 {
				break
			}
			num := fuzzValue(data[0], binary.LittleEndian.Uint64(data[1:9]))
			den := fuzzValue(data[9], binary.LittleEndian.Uint64(data[10:18]))
			if den.Sign() == 0 {
				den.SetInt64(1)
			}
			a = finBig(a.u, a.v, num, den)
			data = data[18:]
		}
		arcs = append(arcs, a)
	}
	return n, arcs
}

// encodeFuzzNetwork is the inverse of decodeFuzzNetwork for values of the
// form v·4^j with v < 2^63 and j < 32 (selector j<<3 keeps raw>>1 = v, so v
// is stored doubled).
func encodeFuzzNetwork(n int, arcs []testArc) []byte {
	out := []byte{byte(n - 3)}
	put := func(x *big.Int) {
		j := 0
		for x.BitLen() > 63+2*j {
			j++
		}
		v := new(big.Int).Rsh(x, uint(2*j))
		if j > 31 || new(big.Int).Lsh(v, uint(2*j)).Cmp(x) != 0 {
			panic(fmt.Sprintf("encodeFuzzNetwork: %v is not v·4^j", x))
		}
		out = append(out, byte(j<<3))
		out = binary.LittleEndian.AppendUint64(out, v.Uint64()<<1)
	}
	for _, a := range arcs {
		if a.c == nil {
			out = append(out, byte(a.u), byte(a.v), 0)
			continue
		}
		out = append(out, byte(a.u), byte(a.v), 1)
		put(a.c.Num())
		put(a.c.Denom())
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
		finArc(0, 1, math.MaxInt64, 1),
		finArc(0, 2, math.MaxInt64, 1),
		infArc(1, 2),
		finArc(1, 3, 1<<61-1, 1<<62),
		finArc(2, 3, dust, 1<<62),
	}
}

// bigBoundEdge is boundEdge with parts past int64: L = 2^124 and
// L·(1 + Σ c_i) = 2^126 − 1 (below the bound) or 2^126 + 1 (past it), from
// two unit arcs, (2^63−1)/2^63 and a dust arc (2^61∓1)/2^124.
func bigBoundEdge(past bool) []testArc {
	dust := big.NewInt(1<<61 - 1)
	if past {
		dust.SetInt64(1<<61 + 1)
	}
	return []testArc{
		finArc(0, 1, 1, 1),
		finArc(0, 2, 1, 1),
		infArc(1, 2),
		finBig(1, 3, big.NewInt(math.MaxInt64), new(big.Int).Lsh(big.NewInt(1), 63)),
		finBig(2, 3, dust, new(big.Int).Lsh(big.NewInt(1), 124)),
	}
}

// lcmEdge is a path whose L = lcm(2^63−1, 2^63−2) is past int64 although
// every part fits: L·(1 + Σ c_i) = 2^126 − 2^63 − 1 is below the bound, and
// a unit arc beside it puts it past.
func lcmEdge(past bool) []testArc {
	arcs := []testArc{finArc(0, 1, 1, math.MaxInt64), finArc(1, 2, 1, math.MaxInt64-1)}
	if past {
		arcs = append(arcs, finArc(0, 2, 1, 1))
	}
	return arcs
}

// FuzzFixedWidthMaxflow referees Dinic on networks of 3–16 nodes with Inf
// arcs and capacities at adversarial magnitudes: whenever the fixed-width
// cells admit a network, the value, every arc's flow, the push count and
// both min-cut sides must equal the numeric.Rat Dinic's, the value and both
// min-cut sides must equal push–relabel's and Edmonds–Karp's, every solve
// must conserve flow, and the admission decision must match math/big.
func FuzzFixedWidthMaxflow(f *testing.F) {
	f.Add(encodeFuzzNetwork(4, boundEdge(false)))
	f.Add(encodeFuzzNetwork(4, boundEdge(true)))
	f.Add(encodeFuzzNetwork(4, bigBoundEdge(false)))
	f.Add(encodeFuzzNetwork(4, bigBoundEdge(true)))
	f.Add(encodeFuzzNetwork(3, lcmEdge(false)))
	f.Add(encodeFuzzNetwork(3, lcmEdge(true)))
	f.Add(encodeFuzzNetwork(5, []testArc{
		finArc(0, 1, 3, 7), finArc(0, 2, 1<<48, 1<<48+1), infArc(1, 3), infArc(2, 3), finArc(1, 2, 5, 2), finArc(3, 4, 9, 4), finArc(2, 4, 1<<31+1, 1),
	}))
	f.Add(encodeFuzzNetwork(6, []testArc{
		finArc(0, 1, 1, 3), finArc(0, 2, 2, 3), infArc(1, 3), infArc(1, 4), infArc(2, 4), finArc(3, 5, 1, 1), finArc(4, 5, 1, 2), finArc(0, 5, 0, 1),
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		n, arcs := decodeFuzzNetwork(data)
		if n == 0 {
			return
		}
		checkFixedAgainstRat(t, n, arcs)
	})
}

// TestFixedWidthMaxflowAdmission pins the one admission rule,
// (1+k)·L·(1 + Σ c_i) < 2^126, on both sides of the bound: with int64
// parts, with L past int64, with parts past int64, with L or one capacity
// reaching 2^126 by itself, and with an Inf arc leaving the source (which
// doubles the bound on the flow value); each network is also refereed
// against the numeric.Rat Dinic.
func TestFixedWidthMaxflowAdmission(t *testing.T) {
	if !checkFixedAgainstRat(t, 4, boundEdge(false)) {
		t.Fatal("2^126 − 2 rejected")
	}
	if checkFixedAgainstRat(t, 4, boundEdge(true)) {
		t.Fatal("2^126 admitted")
	}
	if !checkFixedAgainstRat(t, 3, lcmEdge(false)) {
		t.Fatal("2^126 − 2^63 − 1 with L past int64 rejected")
	}
	if checkFixedAgainstRat(t, 3, lcmEdge(true)) {
		t.Fatal("L past int64 past the bound admitted")
	}
	if !checkFixedAgainstRat(t, 4, bigBoundEdge(false)) {
		t.Fatal("2^126 − 1 with L = 2^124 rejected")
	}
	if checkFixedAgainstRat(t, 4, bigBoundEdge(true)) {
		t.Fatal("2^126 + 1 with L = 2^124 admitted")
	}
	// One capacity on an s → x → t path with an Inf last arc, so L = 1
	// and the bound is 1 + c: 2^126 − 2 is admitted, 2^126 − 1 reaches the
	// bound through the sum, and 2^126 or 1/2^126 reach it by itself.
	one, p126 := big.NewInt(1), new(big.Int).Lsh(big.NewInt(1), 126)
	single := func(num, den *big.Int) []testArc {
		return []testArc{finBig(0, 1, num, den), infArc(1, 2)}
	}
	if !checkFixedAgainstRat(t, 3, single(new(big.Int).Sub(p126, big.NewInt(2)), one)) {
		t.Fatal("capacity 2^126 − 2 rejected")
	}
	for _, c := range [][2]*big.Int{{new(big.Int).Sub(p126, one), one}, {p126, one}, {one, p126}} {
		if checkFixedAgainstRat(t, 3, single(c[0], c[1])) {
			t.Fatalf("capacity %v/%v admitted", c[0], c[1])
		}
	}
	// A capacity with parts off int64 (2^70/3) far below the bound.
	if !checkFixedAgainstRat(t, 3, []testArc{finBig(0, 1, new(big.Int).Lsh(one, 70), big.NewInt(3)), finArc(1, 2, 5, 2)}) {
		t.Fatal("2^70/3 rejected")
	}
	// k = 1: with an Inf arc leaving the source the flow value may reach
	// 2·L·(1 + Σ c_i) = 2·(2^126 − 2^61 − 1).
	srcInf := []testArc{finArc(0, 1, math.MaxInt64, 1), finArc(2, 3, math.MaxInt64, 1), finArc(1, 3, 1<<61-1, 1<<62), infArc(0, 2)}
	if checkFixedAgainstRat(t, 4, srcInf) {
		t.Fatal("Inf source arc past the bound admitted")
	}
	if !checkFixedAgainstRat(t, 4, srcInf[:3]) {
		t.Fatal("2^126 − 2^61 − 1 rejected")
	}
	if !checkFixedAgainstRat(t, 3, []testArc{infArc(0, 1), finArc(1, 2, 3, 2)}) {
		t.Fatal("Inf source arc below the bound rejected")
	}
}

// TestFixedWidthMatchesRatOnRandomNetworks referees random networks with
// rational and Inf capacities against the numeric.Rat Dinic, push–relabel
// and Edmonds–Karp (checkFixedAgainstRat); every tenth
// one carries two dust arcs 1/(2^63−1) and 1/(2^63−2), whose L is within
// 2^64 of 2^126, so any other nonzero capacity puts it past the bound and
// on rationals.
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
				a := finArc(u, v, int64(rng.Intn(20)), int64(1+rng.Intn(12)))
				if rng.Intn(5) == 0 {
					a = infArc(u, v)
				}
				arcs = append(arcs, a)
			}
		}
		if trial%10 == 0 {
			arcs = append(arcs,
				finArc(rng.Intn(n), rng.Intn(n), 1, math.MaxInt64),
				finArc(rng.Intn(n), rng.Intn(n), 1, math.MaxInt64-1))
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
	want, _ := buildTestNetwork(4, []testArc{finArc(0, 1, 1, 3), finArc(0, 2, 2, 1), finArc(1, 2, 1, 1), finArc(1, 3, 2, 1), finArc(2, 3, 3, 1)})
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
		t.Fatal("network past the bound admitted after SetCapacity")
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
