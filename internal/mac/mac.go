// Package mac implements a CSMA/CA medium-access layer over the radio
// channel: DIFS + binary-exponential-backoff contention, unicast DATA/ACK
// with a retry limit, and broadcast without acknowledgment.
//
// It reproduces the 802.11 DCF behaviours the paper's protocols depend on:
//
//   - link-layer unicast loss detection: a unicast that exhausts its
//     retries is reported to the network layer, which treats it as a broken
//     link and can resend the packet on a new route ("packet cache", §V);
//   - contention drops under load, feeding Fig. 3 (MAC layer drops);
//   - shared-capacity contention that penalizes chatty protocols.
//
// The state machine is allocation-free in the steady state: every timer
// re-arms one of a fixed set of callbacks bound once at construction (no
// per-attempt closure churn), job structs are pooled per MAC, and the
// frames a station originates are built in place in per-purpose Frame
// structs whose reuse windows are serialized by the DCF timing itself
// (see the txFrame/respFrame comments).
package mac

import (
	"time"

	"slr/internal/radio"
	"slr/internal/sim"
)

// 802.11-like timing and contention constants for a 2 Mbps channel.
const (
	slotTime = 20 * time.Microsecond
	sifs     = 10 * time.Microsecond
	difs     = 50 * time.Microsecond
	cwMin    = 31
	cwMax    = 1023
	// shortRetryLimit bounds consecutive failed channel acquisitions
	// (RTS with no CTS, or an unacknowledged frame sent without RTS).
	// The short counter resets whenever a CTS is received, per the
	// 802.11 SRC/LRC rules.
	shortRetryLimit = 7
	// longRetryLimit bounds DATA transmissions that won the RTS/CTS
	// handshake but got no ACK.
	longRetryLimit = 4
	// ackSize is the ACK frame length in bytes.
	ackSize = 14
	// rtsSize and ctsSize are the RTS/CTS frame lengths.
	rtsSize = 20
	ctsSize = 14
	// rtsThreshold: unicast payloads at or above this size reserve the
	// medium with an RTS/CTS exchange first, the 802.11 default
	// behaviour for the paper's 512-byte data packets. Hidden terminals
	// hear the receiver's CTS and defer, which is what keeps collision
	// losses from masquerading as link breaks.
	rtsThreshold = 256
	// headerSize is added to every payload for MAC framing.
	headerSize = 28
	// queueCap bounds the interface queue, like ns-2's 50-packet IFQ.
	queueCap = 50
)

// UpperLayer receives MAC indications. Implemented by the network stack.
type UpperLayer interface {
	// Deliver hands up a received payload (unicast to this node or
	// broadcast).
	Deliver(from radio.NodeID, payload any)
	// SendFailed reports a unicast payload dropped after the retry limit;
	// routing treats this as a broken link to `to`.
	SendFailed(to radio.NodeID, payload any)
	// SendOK reports a unicast payload acknowledged by `to`.
	SendOK(to radio.NodeID, payload any)
}

// BroadcastDone is optionally implemented by an UpperLayer that pools its
// broadcast payloads: it fires once the frame's air time has elapsed, at
// which point every audible station has completed (or corrupted) its
// reception, so the sender may reclaim the payload container. Deliveries
// of the frame fire before this notification within the same instant.
type BroadcastDone interface {
	BroadcastDone(payload any)
}

// Stats are per-node MAC counters.
type Stats struct {
	TxUnicast   uint64 // DATA transmissions (including retries)
	TxBroadcast uint64
	TxAck       uint64
	TxRts       uint64
	TxCts       uint64
	RxData      uint64 // frames delivered up
	RxAck       uint64
	Retries     uint64 // retransmission attempts
	DropsRetry  uint64 // unicasts dropped at the retry limit
	DropsQueue  uint64 // payloads dropped on interface-queue overflow
}

// Drops returns the total MAC-layer packet drops (Fig. 3's metric).
func (s Stats) Drops() uint64 { return s.DropsRetry + s.DropsQueue }

type job struct {
	to      radio.NodeID
	size    int
	payload any
	// shortCnt counts failed channel acquisitions since the last
	// successful CTS; longCnt counts unacknowledged DATA transmissions.
	shortCnt int
	longCnt  int
	cw       int
	seq      uint32
	priority bool
}

// MAC is one station's medium-access state machine.
type MAC struct {
	id    radio.NodeID
	sim   *sim.Simulator
	ch    *radio.Channel
	up    UpperLayer
	bd    BroadcastDone // m.up's optional hook, asserted once
	queue []*job
	free  []*job // job pool; see getJob/putJob
	cur   *job
	// ackTimer waits for the CTS or ACK of cur; it is re-armed in place
	// across retries (sim.Reschedule) instead of canceled and reallocated.
	ackTimer sim.Timer
	// waitTimer is the pending backoff/attempt event for cur.
	waitTimer sim.Timer
	// bcastTimer marks the end of cur's broadcast air time; bcastJob is
	// the job it completes (one broadcast in flight per station).
	bcastTimer sim.Timer
	bcastJob   *job
	// respTimer is the pending SIFS-delayed CTS or ACK response, sending
	// respFrame. A station can owe at most one response at a time: a
	// response is armed sifs (10us) after a clean reception ends, and the
	// next clean reception cannot end sooner than one PHY preamble
	// (192us) later — receptions overlapping our response transmission
	// are corrupted and deliver nothing.
	respTimer sim.Timer
	respFrame radio.Frame
	// txFrame carries cur's RTS or DATA frame. One outgoing exchange
	// frame exists at a time, and every reception of it completes at its
	// air-time end, strictly before the earliest event that rebuilds it
	// (retry after timeout, DATA after CTS+SIFS, or the next job's
	// attempt after DIFS+backoff), so in-place reuse is safe.
	txFrame radio.Frame
	// awaitingCts marks the RTS phase of cur's exchange.
	awaitingCts bool
	seq         uint32
	// lastSeq dedups retransmitted unicasts per sender; it is made at
	// the first unicast received, so a station that never receives one
	// holds none.
	lastSeq map[radio.NodeID]uint32
	stats   Stats

	// Bound callbacks, allocated once here and re-armed through
	// sim.Reschedule ever after: the per-attempt hot path (backoff,
	// timeout, retry, response) closes over nothing.
	onWait     func()
	onTimeout  func()
	onCtsSifs  func()
	onBcastEnd func()
	onResp     func()
}

var _ radio.Receiver = (*MAC)(nil)

// New creates a MAC for station id and registers nothing — the caller
// registers it with the channel (Register requires the mobility model,
// which the scenario owns).
func New(s *sim.Simulator, ch *radio.Channel, id radio.NodeID, up UpperLayer) *MAC {
	m := &MAC{
		id:  id,
		sim: s,
		ch:  ch,
		up:  up,
	}
	m.bd, _ = up.(BroadcastDone)
	// The timers below are canceled (or superseded by Reschedule) in
	// next() whenever cur changes, so when one fires, cur is still the
	// job it was armed for; the nil checks are the only staleness guards
	// the bound callbacks need.
	m.onWait = func() {
		m.waitTimer = sim.Timer{}
		if m.cur != nil {
			m.attempt()
		}
	}
	m.onTimeout = func() {
		if m.cur != nil {
			m.exchangeTimeout()
		}
	}
	m.onCtsSifs = func() {
		m.ackTimer = sim.Timer{}
		if m.cur != nil {
			m.sendData(m.cur)
		}
	}
	m.onBcastEnd = func() {
		j := m.bcastJob
		m.bcastJob = nil
		if m.cur == j {
			m.next()
		}
		if m.bd != nil {
			m.bd.BroadcastDone(j.payload)
		}
		m.putJob(j)
	}
	m.onResp = func() {
		m.respTimer = sim.Timer{}
		if m.ch.Transmitting(m.id) {
			return // half-duplex conflict: the sender will retry
		}
		if m.respFrame.Kind == radio.Cts {
			m.stats.TxCts++
		} else {
			m.stats.TxAck++
		}
		m.ch.Transmit(&m.respFrame)
	}
	return m
}

// Stats returns a copy of the counters.
func (m *MAC) Stats() Stats { return m.stats }

// getJob takes a job from the pool, resetting every field.
func (m *MAC) getJob(to radio.NodeID, size int, payload any, priority bool) *job {
	var j *job
	if n := len(m.free); n > 0 {
		j = m.free[n-1]
		m.free[n-1] = nil
		m.free = m.free[:n-1]
	} else {
		j = &job{}
	}
	*j = job{to: to, size: size, payload: payload, priority: priority}
	return j
}

// putJob returns a completed (delivered, dropped, or evicted) job to the
// pool.
func (m *MAC) putJob(j *job) {
	j.payload = nil
	m.free = append(m.free, j)
}

// Send queues a unicast payload of `size` bytes toward `to`.
func (m *MAC) Send(to radio.NodeID, size int, payload any) {
	if to == radio.Broadcast {
		m.Broadcast(size, payload)
		return
	}
	m.enqueue(to, size, payload, false)
}

// Broadcast queues a link-layer broadcast payload.
func (m *MAC) Broadcast(size int, payload any) {
	m.enqueue(radio.Broadcast, size, payload, false)
}

// SendPriority queues a unicast payload ahead of normal traffic. Network
// stacks use it for routing control packets, mirroring the priority
// interface queue of the ns-2/GloMoSim models the paper's evaluation runs
// on: routing packets do not wait behind full data queues.
func (m *MAC) SendPriority(to radio.NodeID, size int, payload any) {
	if to == radio.Broadcast {
		m.BroadcastPriority(size, payload)
		return
	}
	m.enqueue(to, size, payload, true)
}

// BroadcastPriority queues a broadcast payload ahead of normal traffic.
func (m *MAC) BroadcastPriority(size int, payload any) {
	m.enqueue(radio.Broadcast, size, payload, true)
}

func (m *MAC) enqueue(to radio.NodeID, size int, payload any, priority bool) {
	if len(m.queue) >= queueCap {
		if !priority {
			m.stats.DropsQueue++
			return
		}
		// Priority traffic evicts the newest normal payload.
		evicted := false
		for i := len(m.queue) - 1; i >= 0; i-- {
			if !m.queue[i].priority {
				old := m.queue[i]
				copy(m.queue[i:], m.queue[i+1:])
				m.queue[len(m.queue)-1] = nil
				m.queue = m.queue[:len(m.queue)-1]
				m.stats.DropsQueue++
				m.putJob(old)
				evicted = true
				break
			}
		}
		if !evicted {
			m.stats.DropsQueue++
			return
		}
	}
	j := m.getJob(to, size, payload, priority)
	j.cw = cwMin
	j.seq = m.seq
	m.seq++
	if j.priority {
		// Insert after the last queued priority job, ahead of data.
		pos := 0
		for pos < len(m.queue) && m.queue[pos].priority {
			pos++
		}
		m.queue = append(m.queue, nil)
		copy(m.queue[pos+1:], m.queue[pos:])
		m.queue[pos] = j
	} else {
		m.queue = append(m.queue, j)
	}
	if m.cur == nil {
		m.next()
	}
}

func (m *MAC) next() {
	m.sim.Cancel(m.ackTimer)
	m.ackTimer = sim.Timer{}
	m.sim.Cancel(m.waitTimer)
	m.waitTimer = sim.Timer{}
	m.awaitingCts = false
	if len(m.queue) == 0 {
		m.cur = nil
		return
	}
	m.cur = m.queue[0]
	copy(m.queue, m.queue[1:])
	m.queue[len(m.queue)-1] = nil
	m.queue = m.queue[:len(m.queue)-1]
	m.backoff()
}

// backoff schedules the next transmission attempt after the medium is
// expected to go idle, plus DIFS and a random number of slots.
func (m *MAC) backoff() {
	start := m.ch.IdleAt(m.id)
	wait := difs + sim.Time(m.sim.Rand().Intn(m.cur.cw+1))*slotTime
	m.waitTimer = m.sim.Reschedule(m.waitTimer, start+wait, m.onWait)
}

// useRTS reports whether j's exchange starts with RTS/CTS.
func (m *MAC) useRTS(j *job) bool {
	return j.to != radio.Broadcast && j.size+headerSize >= rtsThreshold
}

func (m *MAC) attempt() {
	j := m.cur
	if m.ch.Busy(m.id) {
		// Medium grabbed during our backoff: redraw and retry. This is
		// a simplification of DCF counter freezing; it preserves the
		// contention behaviour without per-slot events.
		m.backoff()
		return
	}
	if m.useRTS(j) {
		m.sendRTS(j)
		return
	}
	m.sendData(j)
}

// sendRTS opens the exchange: RTS reserving CTS + DATA + ACK.
func (m *MAC) sendRTS(j *job) {
	dataAir := m.ch.AirTime(j.size + headerSize)
	dur := 3*sifs + m.ch.AirTime(ctsSize) + dataAir + m.ch.AirTime(ackSize)
	m.txFrame = radio.Frame{From: m.id, To: j.to, Kind: radio.Rts, Seq: j.seq,
		Size: rtsSize, Dur: dur}
	m.stats.TxRts++
	m.awaitingCts = true
	m.ch.Transmit(&m.txFrame)
	timeout := m.ch.AirTime(rtsSize) + sifs + m.ch.AirTime(ctsSize) + 3*slotTime
	m.ackTimer = m.sim.RescheduleAfter(m.ackTimer, timeout, m.onTimeout)
}

// sendData transmits the payload frame (directly, or after winning the
// RTS/CTS handshake).
func (m *MAC) sendData(j *job) {
	dur := sim.Time(0)
	if j.to != radio.Broadcast {
		dur = sifs + m.ch.AirTime(ackSize)
	}
	m.txFrame = radio.Frame{
		From:    m.id,
		To:      j.to,
		Kind:    radio.Data,
		Seq:     j.seq,
		Size:    j.size + headerSize,
		Dur:     dur,
		Payload: j.payload,
	}
	air := m.ch.AirTime(m.txFrame.Size)
	m.ch.Transmit(&m.txFrame)
	if j.to == radio.Broadcast {
		m.stats.TxBroadcast++
		m.bcastJob = j
		m.bcastTimer = m.sim.RescheduleAfter(m.bcastTimer, air, m.onBcastEnd)
		return
	}
	m.stats.TxUnicast++
	timeout := air + sifs + m.ch.AirTime(ackSize) + 3*slotTime
	m.ackTimer = m.sim.RescheduleAfter(m.ackTimer, timeout, m.onTimeout)
}

// exchangeTimeout fires when the expected CTS or ACK for cur never
// arrived.
func (m *MAC) exchangeTimeout() {
	j := m.cur
	m.ackTimer = sim.Timer{}
	failed := false
	if m.awaitingCts || !m.useRTS(j) {
		// Channel acquisition failed (no CTS), or a non-RTS unicast
		// went unacknowledged: short retry counter.
		j.shortCnt++
		failed = j.shortCnt >= shortRetryLimit
	} else {
		// The handshake succeeded but DATA drew no ACK: long retry
		// counter; the retry re-acquires the channel from scratch.
		j.longCnt++
		failed = j.longCnt >= longRetryLimit
	}
	m.awaitingCts = false
	if failed {
		m.stats.DropsRetry++
		payload, to := j.payload, j.to
		m.next()
		m.putJob(j)
		m.up.SendFailed(to, payload)
		return
	}
	m.stats.Retries++
	if j.cw < cwMax {
		j.cw = j.cw*2 + 1
		if j.cw > cwMax {
			j.cw = cwMax
		}
	}
	m.backoff()
}

// OnFrame implements radio.Receiver.
func (m *MAC) OnFrame(f *radio.Frame) {
	// Virtual carrier sense: frames addressed elsewhere reserve the
	// medium for their advertised duration. An overheard RTS reserves
	// only up to where its CTS would appear (the 802.11 NAV-reset rule):
	// if the handshake fails, the medium is not left blocked for the
	// whole exchange; a successful CTS and the DATA frame extend the
	// reservation themselves at the stations that must defer.
	if f.To != m.id && f.Dur > 0 {
		dur := f.Dur
		if f.Kind == radio.Rts {
			short := sifs + m.ch.AirTime(ctsSize) + 2*slotTime
			if short < dur {
				dur = short
			}
		}
		m.ch.SetNAV(m.id, m.sim.Now()+dur)
		return
	}
	switch f.Kind {
	case radio.Rts:
		m.handleRTS(f)
	case radio.Cts:
		if f.To != m.id {
			return
		}
		j := m.cur
		if j != nil && m.awaitingCts && j.to == f.From && j.seq == f.Seq {
			m.awaitingCts = false
			j.shortCnt = 0 // successful acquisition resets SRC
			// Re-arm the pending CTS-timeout node in place as the SIFS
			// timer that launches DATA.
			m.ackTimer = m.sim.RescheduleAfter(m.ackTimer, sifs, m.onCtsSifs)
		}
	case radio.Ack:
		if f.To != m.id {
			return
		}
		m.stats.RxAck++
		j := m.cur
		if j != nil && !m.awaitingCts && j.to == f.From && j.seq == f.Seq {
			payload, to := j.payload, j.to
			m.next()
			m.putJob(j)
			m.up.SendOK(to, payload)
		}
	case radio.Data:
		switch f.To {
		case radio.Broadcast:
			m.stats.RxData++
			m.up.Deliver(f.From, f.Payload)
		case m.id:
			m.sendAck(f)
			// Dedup retransmissions whose ACK was lost.
			if last, ok := m.lastSeq[f.From]; ok && last == f.Seq {
				return
			}
			if m.lastSeq == nil {
				m.lastSeq = make(map[radio.NodeID]uint32)
			}
			m.lastSeq[f.From] = f.Seq
			m.stats.RxData++
			m.up.Deliver(f.From, f.Payload)
		}
	}
}

// handleRTS answers a medium reservation addressed to this station.
func (m *MAC) handleRTS(f *radio.Frame) {
	m.respFrame = radio.Frame{
		From: m.id,
		To:   f.From,
		Kind: radio.Cts,
		Seq:  f.Seq,
		Size: ctsSize,
		Dur:  f.Dur - sifs - m.ch.AirTime(ctsSize),
	}
	m.respTimer = m.sim.RescheduleAfter(m.respTimer, sifs, m.onResp)
}

// sendAck transmits an ACK for f after SIFS, bypassing the contention queue
// (ACKs have priority in DCF).
func (m *MAC) sendAck(f *radio.Frame) {
	m.respFrame = radio.Frame{
		From: m.id,
		To:   f.From,
		Kind: radio.Ack,
		Seq:  f.Seq,
		Size: ackSize,
	}
	m.respTimer = m.sim.RescheduleAfter(m.respTimer, sifs, m.onResp)
}
