package bottleneck_test

import (
	"fmt"

	"repro/internal/bottleneck"
	"repro/internal/graph"
	"repro/internal/numeric"
)

// Decompose the paper's Fig. 1 example and read off classes and utilities.
func ExampleDecompose() {
	g := graph.Fig1Graph()
	d, err := bottleneck.Decompose(g)
	if err != nil {
		panic(err)
	}
	fmt.Println(d)
	fmt.Println("v3:", d.ClassOf(2), "α =", d.AlphaOf(2), "U =", d.Utility(g, 2))
	// Output:
	// (B1{0,1}, C1{2}, α=1/3) (B2{3,4,5}, C2{3,4,5}, α=1)
	// v3: C α = 1/3 U = 6
}

// The maximal bottleneck absorbs vertices whose neighborhoods are already
// covered, even at zero marginal α cost.
func ExampleMaxBottleneck() {
	g := graph.Path(numeric.Ints(1, 2, 100, 2, 1))
	B, alpha, err := bottleneck.MaxBottleneck(g, bottleneck.EngineAuto)
	if err != nil {
		panic(err)
	}
	fmt.Println(B, alpha)
	// Output:
	// [0 2 4] 2/51
}
