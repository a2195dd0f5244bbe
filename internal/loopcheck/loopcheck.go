// Package loopcheck detects directed cycles in successor graphs. It backs
// the loop-freedom-at-every-instant check (Theorem 3),
// netstack.Network.CheckLoopFree, which protocol tests, scenario trials
// and -check all run.
package loopcheck

import "slices"

// FindCycle returns a directed cycle in adj as a node sequence whose first
// and last elements coincide, or nil if the graph is acyclic. The search is
// iterative, so deep graphs cannot overflow the stack. The report is
// canonical: roots are tried in ascending id order and the cycle starts at
// its smallest id, so one graph always prints one way.
func FindCycle(adj map[int][]int) []int {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[int]int, len(adj))

	roots := make([]int, 0, len(adj))
	for n := range adj {
		roots = append(roots, n)
	}
	slices.Sort(roots)
	for _, root := range roots {
		if color[root] != white {
			continue
		}
		type frame struct {
			node int
			next int // index into adj[node]
		}
		stack := []frame{{node: root}}
		color[root] = gray
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			edges := adj[top.node]
			if top.next >= len(edges) {
				color[top.node] = black
				stack = stack[:len(stack)-1]
				continue
			}
			m := edges[top.next]
			top.next++
			switch color[m] {
			case gray:
				// Back edge: the cycle is the stack suffix from m,
				// rotated to start at its smallest id.
				var cycle []int
				for i := range stack {
					if stack[i].node == m {
						for _, f := range stack[i:] {
							cycle = append(cycle, f.node)
						}
						break
					}
				}
				lo := slices.Index(cycle, slices.Min(cycle))
				cycle = append(cycle[lo:], cycle[:lo]...)
				return append(cycle, cycle[0])
			case white:
				color[m] = gray
				stack = append(stack, frame{node: m})
			}
		}
	}
	return nil
}
