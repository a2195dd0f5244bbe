// Package metrics collects per-run counters for the paper's three headline
// metrics — delivery ratio, network load, and data latency — plus the MAC
// drop and sequence-number series of Figs. 3 and 7, and provides the
// mean / 95% confidence-interval statistics used in Table I.
package metrics

import (
	"math"
	"time"

	"slr/internal/sim"
)

// Collector accumulates one simulation run's counters. Protocols and the
// network stack update it; the scenario reads it at the end of the run.
// The per-packet path (Sent, Delivered, Control, Drop) is allocation-free
// in steady state: the histograms are fixed arrays and the per-flow index
// grows only when a new flow appears.
type Collector struct {
	// DataSent counts CBR packets handed to the routing layer at sources.
	DataSent uint64
	// DataRecv counts CBR packets delivered at their destinations.
	DataRecv uint64
	// latencySum accumulates end-to-end delay of delivered packets.
	latencySum time.Duration
	// HopsSum accumulates hop counts of delivered packets.
	HopsSum uint64
	// ControlTx counts control-packet transmissions (every hop of every
	// flood or unicast counts once, matching the paper's "total number of
	// control packets sent").
	ControlTx uint64
	// ControlBytes counts control bytes transmitted.
	ControlBytes uint64
	// DataDrops counts data packets dropped by the routing layer, by
	// reason.
	DataDrops map[string]uint64
	// LatencyHist holds delivered-packet end-to-end latency in
	// microseconds; its bucket bounds give the run's p50/p95/p99 tail
	// (mean latency alone hides the tail behavior that distinguishes
	// on-demand protocols under mobility).
	LatencyHist Hist
	// HopHist holds delivered-packet hop counts.
	HopHist Hist
	// flows is the per-flow ledger, indexed by flow id - 1 (see flows.go).
	flows []FlowStat
}

// NewCollector returns an empty Collector.
func NewCollector() *Collector {
	return &Collector{DataDrops: make(map[string]uint64)}
}

// Sent records a CBR origination on the given flow (0 = outside the
// workload, counted only in the totals).
func (c *Collector) Sent(flow uint32) {
	c.DataSent++
	if flow != 0 {
		c.flowAt(flow).Sent++
	}
}

// Delivered records a CBR delivery on flow at virtual time now with its
// end-to-end latency and hops.
func (c *Collector) Delivered(flow uint32, now sim.Time, latency sim.Time, hops int) {
	c.DataRecv++
	c.latencySum += latency
	c.HopsSum += uint64(hops)
	us := latency / time.Microsecond
	if us < 0 {
		us = 0
	}
	c.LatencyHist.Observe(uint64(us))
	c.HopHist.Observe(uint64(hops))
	if flow != 0 {
		fs := c.flowAt(flow)
		if fs.Recv == 0 {
			fs.FirstRecv = now
		}
		fs.Recv++
		fs.LastRecv = now
	}
}

// Control records one control-packet transmission of size bytes.
func (c *Collector) Control(size int) {
	c.ControlTx++
	c.ControlBytes += uint64(size)
}

// Drop records a routing-layer data drop for the given reason.
func (c *Collector) Drop(reason string) { c.DataDrops[reason]++ }

// DeliveryRatio returns delivered/sent, the paper's delivery-ratio metric.
func (c *Collector) DeliveryRatio() float64 {
	if c.DataSent == 0 {
		return 0
	}
	return float64(c.DataRecv) / float64(c.DataSent)
}

// NetworkLoad returns control transmissions per delivered data packet, the
// paper's network-load metric. A run that sent control traffic but
// delivered nothing has no defined per-packet ratio: NetworkLoad reports
// NaN as the documented sentinel (the old fallback returned the raw
// ControlTx count, silently mixing a count into a ratio and skewing
// Table-I averages). Series.Add excludes NaN from aggregates and counts
// the exclusions, and the JSONL emitter serializes it as null.
// A fully idle run (no control traffic either) reports 0.
func (c *Collector) NetworkLoad() float64 {
	if c.DataRecv == 0 {
		if c.ControlTx == 0 {
			return 0
		}
		return math.NaN()
	}
	return float64(c.ControlTx) / float64(c.DataRecv)
}

// MeanLatency returns the mean end-to-end latency in seconds of delivered
// packets, the paper's latency metric.
func (c *Collector) MeanLatency() float64 {
	if c.DataRecv == 0 {
		return 0
	}
	return c.latencySum.Seconds() / float64(c.DataRecv)
}

// MeanHops returns the mean hop count of delivered packets.
func (c *Collector) MeanHops() float64 {
	if c.DataRecv == 0 {
		return 0
	}
	return float64(c.HopsSum) / float64(c.DataRecv)
}
