package loopcheck

import (
	"math/rand"
	"slices"
	"testing"
)

func TestAcyclic(t *testing.T) {
	adj := map[int][]int{0: {1, 2}, 1: {3}, 2: {3}, 3: {}}
	if c := FindCycle(adj); c != nil {
		t.Fatalf("found cycle %v in a DAG", c)
	}
}

func TestSelfLoop(t *testing.T) {
	adj := map[int][]int{5: {5}}
	c := FindCycle(adj)
	if c == nil {
		t.Fatal("self loop not found")
	}
}

func TestTriangle(t *testing.T) {
	adj := map[int][]int{1: {2}, 2: {3}, 3: {1}}
	c := FindCycle(adj)
	if c == nil {
		t.Fatal("triangle not found")
	}
	if len(c) != 4 || c[0] != c[len(c)-1] {
		t.Fatalf("cycle %v malformed", c)
	}
}

func TestCycleOffTheTree(t *testing.T) {
	// A tail leading into a cycle.
	adj := map[int][]int{0: {1}, 1: {2}, 2: {3}, 3: {1}}
	c := FindCycle(adj)
	if c == nil {
		t.Fatal("cycle behind tail not found")
	}
	for _, n := range c {
		if n == 0 {
			t.Fatalf("cycle %v contains tail node", c)
		}
	}
}

func TestEmpty(t *testing.T) {
	if c := FindCycle(nil); c != nil {
		t.Fatalf("cycle in empty graph: %v", c)
	}
}

func TestDeepChainNoOverflow(t *testing.T) {
	adj := make(map[int][]int, 200000)
	for i := 0; i < 200000; i++ {
		adj[i] = []int{i + 1}
	}
	if c := FindCycle(adj); c != nil {
		t.Fatalf("false cycle %v", c)
	}
}

func TestRandomDAGsNeverReportCycles(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		adj := make(map[int][]int)
		n := 2 + rng.Intn(50)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(3) == 0 {
					adj[i] = append(adj[i], j) // edges only forward: DAG
				}
			}
		}
		if c := FindCycle(adj); c != nil {
			t.Fatalf("trial %d: false cycle %v", trial, c)
		}
	}
}

func TestRandomGraphWithKnownCycle(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		adj := make(map[int][]int)
		n := 5 + rng.Intn(50)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				adj[i] = append(adj[i], rng.Intn(n))
			}
		}
		// Plant a definite cycle among three fresh nodes.
		a, b, c := n, n+1, n+2
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], c)
		adj[c] = append(adj[c], a)
		if FindCycle(adj) == nil {
			t.Fatalf("trial %d: planted cycle not found", trial)
		}
	}
}

// TestCycleReportIsCanonical: a violation must print the same way on every
// run, whatever order the map hands out roots in.
func TestCycleReportIsCanonical(t *testing.T) {
	for _, tc := range []struct {
		name string
		adj  func() map[int][]int
		want []int
	}{
		{"two-node", func() map[int][]int { return map[int][]int{6: {4}, 4: {6}, 2: {}, 8: {6}} }, []int{4, 6, 4}},
		{"three-node", func() map[int][]int { return map[int][]int{9: {7}, 7: {3}, 3: {9}, 1: {7}, 5: {1}} }, []int{3, 9, 7, 3}},
		{"two cycles", func() map[int][]int { return map[int][]int{12: {11}, 11: {12}, 21: {20}, 20: {21}} }, []int{11, 12, 11}},
	} {
		for i := 0; i < 50; i++ {
			if got := FindCycle(tc.adj()); !slices.Equal(got, tc.want) {
				t.Fatalf("%s, run %d: cycle %v, want %v", tc.name, i, got, tc.want)
			}
		}
	}
}
