package main

import (
	"encoding/binary"
	"time"

	"densevlc/internal/frame"
	"densevlc/internal/mac"
	"densevlc/internal/transport"
)

// Offsets of the MAC protocol field: in a downlink wire frame (Ethernet
// header, TX-ID mask, then the MAC header) and in an uplink MAC frame.
const (
	macProtoOff      = frame.SFDLen + frame.LengthLen + 2*frame.AddrLen
	downlinkProtoOff = frame.EthHeaderLen + frame.TXIDLen + macProtoOff
)

func protoAt(data []byte, off int) uint16 {
	if len(data) < off+frame.ProtocolLen {
		return 0
	}
	return binary.BigEndian.Uint16(data[off:])
}

// probeNet is a pass-through transport.Network that reads epoch boundaries
// off the control plane without decoding frames: an epoch starts at the
// first pilot multicast after any other frame, and the controller's
// turnaround runs from the last report sent uplink to the allocation
// multicast. With timed set, the first pilot multicast restarts that
// meter, so sim.Run's construction stays out of the timed section; with
// heapAt set it reads the live heap at that epoch's allocation multicast.
// sim.Run drives it from one goroutine.
type probeNet struct {
	inner       transport.Network
	timed       *meter
	heapAt      int
	heapBytes   uint64
	lastProto   uint16
	starts      []time.Time
	lastReport  time.Time
	reportSeen  bool
	turnarounds []float64 // ms
}

func newProbe() *probeNet { return &probeNet{inner: transport.NewMemNetwork(), heapAt: -1} }

func (p *probeNet) Controller() transport.ControllerLink {
	return probeCtrl{p, p.inner.Controller()}
}

func (p *probeNet) NewNode() (transport.NodeLink, error) {
	l, err := p.inner.NewNode()
	if err != nil {
		return nil, err
	}
	return probeNode{p, l}, nil
}

func (p *probeNet) Close() error { return p.inner.Close() }

type probeCtrl struct {
	p *probeNet
	transport.ControllerLink
}

func (c probeCtrl) Multicast(data []byte) error {
	p := c.p
	proto := protoAt(data, downlinkProtoOff)
	if proto == mac.ProtoPilot && p.lastProto != mac.ProtoPilot {
		if len(p.starts) == 0 && p.timed != nil {
			p.timed.resume()
		}
		p.starts = append(p.starts, time.Now())
	}
	if proto == mac.ProtoAllocation && p.reportSeen {
		p.turnarounds = append(p.turnarounds, ms(time.Since(p.lastReport)))
		p.reportSeen = false
	}
	if proto == mac.ProtoAllocation && len(p.starts)-1 == p.heapAt {
		p.heapBytes = liveHeap()
	}
	p.lastProto = proto
	return c.ControllerLink.Multicast(data)
}

type probeNode struct {
	p *probeNet
	transport.NodeLink
}

func (n probeNode) SendUplink(data []byte) error {
	if protoAt(data, macProtoOff) == mac.ProtoReport {
		n.p.lastReport, n.p.reportSeen = time.Now(), true
	}
	return n.NodeLink.SendUplink(data)
}

// epochMillis returns the duration of every epoch seen, the last one
// closed at end, the instant the run returned (after the network's
// teardown, which is small).
func (p *probeNet) epochMillis(end time.Time) []float64 {
	out := make([]float64, len(p.starts))
	for i, s := range p.starts {
		next := end
		if i+1 < len(p.starts) {
			next = p.starts[i+1]
		}
		out[i] = ms(next.Sub(s))
	}
	return out
}
