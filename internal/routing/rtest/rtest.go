// Package rtest provides a shared in-memory world harness for routing
// protocol tests: a netstack.Network, wired and loop-checked
// (CheckLoopFree) the way scenario trials are, with nodes placed at
// positions or on scripted mobility, and application packet injection.
package rtest

import (
	"fmt"
	"math"
	"runtime"

	"slr/internal/geo"
	"slr/internal/mobility"
	"slr/internal/netstack"
	"slr/internal/radio"
	"slr/internal/sim"
)

// World is a small simulated network for protocol tests: a
// netstack.Network with packet injection on top.
type World struct {
	*netstack.Network
	uid uint64
}

// Factory builds a protocol instance for a node.
type Factory func(id netstack.NodeID) netstack.Protocol

// New builds a world with one node per position and starts every
// protocol. Nodes are static unless models is non-nil, in which case
// models[i] overrides position i. Every override must report a MaxSpeed()
// (mobility.Trace and mobility.Waypoint do): the channel's spatial grid
// needs a true bound on how fast stations move, and a mover without one
// panics here rather than silently outrunning its cached position.
func New(seed int64, rangeM float64, f Factory, positions []geo.Point, models []mobility.Model) *World {
	w := NewStopped(seed, rangeM, f, positions, models)
	w.StartAll()
	return w
}

// NewStopped builds a world like New but does not start the protocols, so
// tests can observe the before-Start contract (no control traffic) or
// exercise Start explicitly.
func NewStopped(seed int64, rangeM float64, f Factory, positions []geo.Point, models []mobility.Model) *World {
	p := radio.DefaultParams()
	p.Range = rangeM
	placed := make([]mobility.Model, len(positions))
	for i, pos := range positions {
		placed[i] = &mobility.Static{At: pos}
		if models == nil || models[i] == nil {
			continue
		}
		b, ok := models[i].(interface{ MaxSpeed() float64 })
		if !ok {
			panic(fmt.Sprintf("rtest: models[%d] (%T) has no MaxSpeed() bound", i, models[i]))
		}
		p.MaxSpeed = math.Max(p.MaxSpeed, b.MaxSpeed())
		placed[i] = models[i]
	}
	return &World{Network: netstack.NewNetwork(sim.New(seed), p, placed, f)}
}

// Chain returns n positions spaced `gap` meters apart on a line.
func Chain(n int, gap float64) []geo.Point {
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Point{X: float64(i) * gap}
	}
	return pts
}

// Grid returns rows x cols positions spaced `gap` meters apart.
func Grid(rows, cols int, gap float64) []geo.Point {
	pts := make([]geo.Point, 0, rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			pts = append(pts, geo.Point{X: float64(c) * gap, Y: float64(r) * gap})
		}
	}
	return pts
}

// Send originates one application packet from src to dst.
func (w *World) Send(src, dst int) {
	w.uid++
	w.Nodes[src].SendData(&netstack.DataPacket{
		UID:     w.uid,
		Src:     netstack.NodeID(src),
		Dst:     netstack.NodeID(dst),
		Size:    512,
		TTL:     netstack.DefaultTTL,
		Created: w.Sim.Now(),
	})
}

// AllocsPerRelay reports the average number of heap allocations of fn, a
// call that schedules relays, over runs calls, in the manner of
// testing.AllocsPerRun (one uncounted warm-up call, GOMAXPROCS 1, integer
// average). Between calls, outside the count, it runs the simulator settle
// further, so every relay the previous call scheduled has left the air and
// its envelope is back in the node's pool: the count is that of a relay on
// a warm pool, not of the pool filling up.
func (w *World) AllocsPerRelay(runs int, settle sim.Time, fn func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	var mallocs uint64
	for i := 0; i <= runs; i++ {
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		if i > 0 {
			mallocs += after.Mallocs - before.Mallocs
		}
		w.Sim.RunUntil(w.Sim.Now() + settle)
	}
	return float64(mallocs / uint64(runs))
}
