package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"densevlc/internal/alloc"
	"densevlc/internal/channel"
	"densevlc/internal/units"
)

// spanName identifies the public call a span times.
type spanName uint8

const (
	spEpoch spanName = iota
	spEngineStep
	spEnginePosition
	spEngineMask
	spEngineActiveMask
	spTrackerObserve
	spDetectors
	spBuildMatrix
	spMoveRX
	spFramePER
	spDownlinkSerialize
	spSerializeMAC
	spDecodeDownlink
	spDecodeMAC
	spMulticast
	spSendUplink
	spRecv
	spHandleUplink
	spPilotFrame
	spTXHandleDownlink
	spRXRecord
	spRXRoundComplete
	spRXBuildReport
	spReportEncode
	spHaveFresh
	spTXCommand
	spAllocationFrame
	spReallocate
	spPolicy
	spEvaluate
	spPhyLink
	spMeasurePER
	numSpans
)

// spans names every span and the per-layer busy metric its self time
// counts towards. The reallocate span's self time is mac.self_ms; its full
// duration is reported separately as mac.reallocate_ms.
var spans = [numSpans]struct{ name, metric string }{
	spEpoch:             {"epoch", "other.self_ms"},
	spEngineStep:        {"workload.Engine.Step", "workload.step_ms"},
	spEnginePosition:    {"workload.Engine.Position", "workload.step_ms"},
	spEngineMask:        {"workload.Engine.Mask", "workload.step_ms"},
	spEngineActiveMask:  {"workload.Engine.ActiveMask", "workload.step_ms"},
	spTrackerObserve:    {"workload.Tracker.Observe", "workload.step_ms"},
	spDetectors:         {"scenario.Setup.Detectors", "channel.build_ms"},
	spBuildMatrix:       {"channel.BuildMatrix", "channel.build_ms"},
	spMoveRX:            {"scenario.Mover.MoveRX+channel.Matrix.ColumnInto", "channel.refresh_ms"},
	spFramePER:          {"channel.FramePER", "channel.per_ms"},
	spDownlinkSerialize: {"frame.Downlink.Serialize", "frame.encode_ms"},
	spSerializeMAC:      {"frame.SerializeMAC", "frame.encode_ms"},
	spDecodeDownlink:    {"frame.DecodeDownlink", "frame.decode_ms"},
	spDecodeMAC:         {"frame.DecodeMAC", "frame.decode_ms"},
	spMulticast:         {"transport.ControllerLink.Multicast", "transport.send_ms"},
	spSendUplink:        {"transport.NodeLink.SendUplink", "transport.send_ms"},
	spRecv:              {"transport.receive", "transport.recv_ms"},
	spHandleUplink:      {"mac.Controller.HandleUplink", "mac.ingest_ms"},
	spPilotFrame:        {"mac.Controller.PilotFrame", "mac.nodes_ms"},
	spTXHandleDownlink:  {"mac.TXNode.HandleDownlink", "mac.nodes_ms"},
	spRXRecord:          {"mac.RXNode.RecordMeasurement", "mac.nodes_ms"},
	spRXRoundComplete:   {"mac.RXNode.RoundComplete", "mac.nodes_ms"},
	spRXBuildReport:     {"mac.RXNode.BuildReport", "mac.nodes_ms"},
	spReportEncode:      {"mac.Report.Encode", "mac.nodes_ms"},
	spHaveFresh:         {"mac.Controller.HaveFreshReports", "mac.nodes_ms"},
	spTXCommand:         {"mac.TXNode.Swing", "mac.nodes_ms"},
	spAllocationFrame:   {"mac.Controller.AllocationFrame", "mac.allocframe_ms"},
	spReallocate:        {"mac.Controller.ReallocateContext", "mac.self_ms"},
	spPolicy:            {"alloc.Policy.Allocate", "alloc.solve_ms"},
	spEvaluate:          {"alloc.Evaluate", "alloc.evaluate_ms"},
	spPhyLink:           {"phy.NewLink", "phy.data_ms"},
	spMeasurePER:        {"phy.Link.MeasurePER", "phy.data_ms"},
}

// maxSpans bounds the spans kept for the trace file; aggregation covers
// every span regardless.
const maxSpans = 200_000

// spanRec is one recorded span: times are nanoseconds since the tracer
// started, parent is the index of the enclosing span (-1 for none).
type spanRec struct {
	name       spanName
	parent     int32
	epoch      int32
	start, end int64
}

type openSpan struct {
	id    int32
	name  spanName
	start int64
	child int64
}

// tracer records spans around the calls the benchmark makes into each
// layer, nested on one goroutine. Its methods are no-ops on a nil or a
// paused tracer, which is how untraced epochs run the shared driver.
type tracer struct {
	paused bool
	t0     time.Time
	epoch  int32
	epochs int
	stack  []openSpan
	log    []spanRec
	self   [numSpans]int64
	total  [numSpans]int64
	count  [numSpans]int64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), epoch: -1} }

// reset drops everything recorded so far, such as warm-up solves.
func (t *tracer) reset() { *t = *newTracer() }

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.t0)) }

func (t *tracer) begin(n spanName) {
	if t == nil || t.paused {
		return
	}
	start := t.since(time.Now())
	id := int32(-1)
	if len(t.log) < maxSpans {
		parent := int32(-1)
		if k := len(t.stack); k > 0 {
			parent = t.stack[k-1].id
		}
		id = int32(len(t.log))
		t.log = append(t.log, spanRec{name: n, parent: parent, epoch: t.epoch, start: start})
	}
	t.stack = append(t.stack, openSpan{id: id, name: n, start: start})
}

func (t *tracer) end() {
	if t == nil || t.paused {
		return
	}
	end := t.since(time.Now())
	k := len(t.stack) - 1
	top := t.stack[k]
	t.stack = t.stack[:k]
	dur := end - top.start
	t.self[top.name] += dur - top.child
	t.total[top.name] += dur
	t.count[top.name]++
	if k > 0 {
		t.stack[k-1].child += dur
	}
	if top.id >= 0 {
		t.log[top.id].end = end
	}
}

// beginEpoch opens the root span of the next epoch.
func (t *tracer) beginEpoch() {
	if t == nil || t.paused {
		return
	}
	t.epoch++
	t.epochs++
	t.begin(spEpoch)
}

// closeBreakdown sets the per-epoch self times of every layer and
// trace.epoch_ms, and checks that the self times sum to the epoch time —
// they must, since every span nests under an epoch span.
func (t *tracer) closeBreakdown(r *result) {
	var sum int64
	for n := spanName(0); n < numSpans; n++ {
		r.layers[spans[n].metric] += perEpoch(float64(t.self[n])/1e6, t.epochs)
		sum += t.self[n]
	}
	r.layers["mac.reallocate_ms"] = perEpoch(float64(t.total[spReallocate])/1e6, t.epochs)
	r.layers["alloc.solves_per_epoch"] = perEpoch(float64(t.count[spPolicy]), t.epochs)
	r.layers["trace.epoch_ms"] = perEpoch(float64(t.total[spEpoch])/1e6, t.epochs)
	if sum != t.total[spEpoch] {
		r.gate("trace: layer self times sum to %d ns, epochs took %d ns", sum, t.total[spEpoch])
	}
	if len(t.stack) != 0 {
		r.gate("trace: %d spans left open", len(t.stack))
	}
}

// write stores the kept spans as JSON lines under dir.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	for _, s := range t.log {
		_, err = fmt.Fprintf(w, "{\"name\":%q,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"epoch\":%d}\n",
			spans[s.name].name, s.start, s.end, s.parent, s.epoch)
		if err != nil {
			break
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if err != nil {
		_ = f.Close() // the write error is the one to report
		return "", err
	}
	return path, f.Close()
}

// timedPolicy wraps the controller's policy in the traced pass, timing
// every solve as an alloc span nested under the running reallocate span.
type timedPolicy struct {
	inner alloc.Policy
	tr    *tracer
}

func (p timedPolicy) Name() string { return p.inner.Name() }

func (p timedPolicy) Allocate(env *alloc.Env, budget units.Watts) (channel.Swings, error) {
	p.tr.begin(spPolicy)
	defer p.tr.end()
	return p.inner.Allocate(env, budget)
}
