package node

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"sync"
	"testing"
	"time"

	"densevlc/internal/chaos"
	"densevlc/internal/clock"
	"densevlc/internal/frame"
	"densevlc/internal/mac"
	"densevlc/internal/scenario"
	"densevlc/internal/testutil"
	"densevlc/internal/transport"
	"densevlc/internal/workload"
)

func churnSpec() *workload.Spec {
	sp := workload.DefaultSpec()
	sp.ArrivalRate = 2 // population builds within the first rounds
	sp.MeanDwell = 10
	sp.Fleet = 4
	sp.PeakFrames = 4
	return &sp
}

// TestChurnRunDeliversUnderChurn is the end-to-end churn exercise: the full
// goroutine-per-node runtime under a live workload engine — arrivals light
// up photodiodes, the real pilot/report path carries their channels, the
// allocator serves them, and payload frames land.
func TestChurnRunDeliversUnderChurn(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	res, err := Run(Config{
		Setup:            scenario.Default(),
		Workload:         churnSpec(),
		Budget:           1.19,
		Sync:             clock.MethodNLOSVLC,
		Rounds:           6,
		RoundDuration:    1,
		FramesPerRX:      4,
		MeasurementNoise: 0.02,
		Seed:             3,
		AckTimeout:       300 * time.Millisecond,
		Timeout:          60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 6 || len(res.Steps) != 6 {
		t.Fatalf("%d rounds, %d steps", len(res.Rounds), len(res.Steps))
	}
	population := 0
	for _, st := range res.Steps {
		if st.Population > population {
			population = st.Population
		}
	}
	if population == 0 {
		t.Fatal("no arrivals in 6 rounds at rate 2: the run exercised nothing")
	}
	decisions := 0
	for _, r := range res.Rounds {
		if !r.ReportsOK {
			t.Errorf("round %d: reports incomplete", r.Round)
		}
		if r.DecisionTime > 0 {
			decisions++
		}
	}
	if decisions == 0 {
		t.Error("no round recorded a positive decision time")
	}
	if res.Delivered == 0 {
		t.Error("no payloads delivered under churn")
	}
	if len(res.WorkloadTrace) == 0 {
		t.Error("empty workload trace")
	}
}

// churnTraceSHA256 is the digest of the workload trace of
// TestChurnRunTraceDeterministic's configuration, recorded from the
// runtime's earlier dedicated churn entry point: merging it into Run must
// not move a single event.
const churnTraceSHA256 = "932813481222afe145a0334bf2fd1a664839b7f6d1ac0492f6c87d4564c79ca0"

// TestChurnRunTraceDeterministic: the engine's churn trace is isolated from
// the async runtime's scheduling noise — same seed, byte-identical trace
// and per-round population stats, regardless of goroutine interleaving.
func TestChurnRunTraceDeterministic(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	run := func() *Result {
		res, err := Run(Config{
			Setup:         scenario.Default(),
			Workload:      churnSpec(),
			Budget:        1.19,
			Sync:          clock.MethodNLOSVLC,
			Rounds:        3,
			RoundDuration: 1,
			FramesPerRX:   2,
			Seed:          8,
			AckTimeout:    300 * time.Millisecond,
			Timeout:       60 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !bytes.Equal(a.WorkloadTrace, b.WorkloadTrace) {
		t.Fatalf("traces diverged:\n%s\nvs\n%s", a.WorkloadTrace, b.WorkloadTrace)
	}
	for k := range a.Steps {
		if a.Steps[k] != b.Steps[k] {
			t.Fatalf("step %d: %+v vs %+v", k, a.Steps[k], b.Steps[k])
		}
	}
	sum := sha256.Sum256(a.WorkloadTrace)
	if got := hex.EncodeToString(sum[:]); got != churnTraceSHA256 {
		t.Errorf("workload trace sha256 %s, want %s:\n%s", got, churnTraceSHA256, a.WorkloadTrace)
	}
}

// TestChurnRunRejectsInvalidWorkload: spec validation fails before any
// goroutine spawns, as does a workload alongside fixed trajectories.
func TestChurnRunRejectsInvalidWorkload(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	sp := churnSpec()
	sp.Fleet = 0
	if _, err := Run(Config{
		Setup:    scenario.Default(),
		Workload: sp,
		Budget:   1.19,
		Rounds:   1,
	}); err == nil {
		t.Fatal("fleet 0 accepted")
	}
	if _, err := Run(Config{
		Setup:        scenario.Default(),
		Workload:     churnSpec(),
		Trajectories: asyncTrajectories(),
		Budget:       1.19,
		Rounds:       1,
	}); err == nil {
		t.Fatal("Workload with Trajectories accepted")
	}
}

// TestChurnRunHonoursContext: a pre-cancelled context unwinds the whole
// deployment promptly and leaks nothing.
func TestChurnRunHonoursContext(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, Config{
		Setup:         scenario.Default(),
		Workload:      churnSpec(),
		Budget:        1.19,
		Sync:          clock.MethodNLOSVLC,
		Rounds:        50,
		RoundDuration: 1,
		Seed:          1,
		Timeout:       60 * time.Second,
	})
	_ = err // cancellation may surface as nil (0 rounds) or context.Canceled
}

// TestChurnRunDefaults: zero Timeout and RoundDuration fall back to the
// documented defaults (60 s bound, 1 s rounds) instead of an instant
// deadline or a frozen clock.
func TestChurnRunDefaults(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	res, err := Run(Config{
		Setup:       scenario.Default(),
		Workload:    churnSpec(),
		Budget:      1.19,
		Sync:        clock.MethodNLOSVLC,
		Rounds:      1,
		FramesPerRX: 2,
		Seed:        5,
		AckTimeout:  300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 1 || len(res.Steps) != 1 {
		t.Fatalf("%d rounds, %d steps", len(res.Rounds), len(res.Steps))
	}
}

// tapNetwork records every frame the controller multicasts and every frame
// a node sends upstream, in the order they happen.
type tapNetwork struct {
	transport.Network
	mu       sync.Mutex
	down, up [][]byte
}

func (n *tapNetwork) record(dst *[][]byte, data []byte) {
	n.mu.Lock()
	defer n.mu.Unlock()
	*dst = append(*dst, append([]byte(nil), data...))
}

func (n *tapNetwork) Controller() transport.ControllerLink {
	return tapController{n.Network.Controller(), n}
}

func (n *tapNetwork) NewNode() (transport.NodeLink, error) {
	link, err := n.Network.NewNode()
	if err != nil {
		return nil, err
	}
	return tapNode{link, n}, nil
}

type tapController struct {
	transport.ControllerLink
	tap *tapNetwork
}

func (c tapController) Multicast(data []byte) error {
	c.tap.record(&c.tap.down, data)
	return c.ControllerLink.Multicast(data)
}

type tapNode struct {
	transport.NodeLink
	tap *tapNetwork
}

func (l tapNode) SendUplink(data []byte) error {
	l.tap.record(&l.tap.up, data)
	return l.NodeLink.SendUplink(data)
}

// TestChurnChaosFaultsOutliveLiveness runs the goroutine runtime under a
// workload and a chaos schedule at once. Slot 0 is occupied from the first
// round and opaquely blocked from t=0, and TX 7 fails at t=0: every channel
// report slot 0 sends stays dark although the workload re-marks it live
// each epoch, no report sees TX 7, TX 7 is never commanded a swing, and
// both traces repeat for the same seed.
func TestChurnChaosFaultsOutliveLiveness(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	const deadTX = 7
	schedule, err := chaos.Parse("0:rxblock:0:0;0:txfail:7")
	if err != nil {
		t.Fatal(err)
	}
	run := func() (*Result, *tapNetwork) {
		tap := &tapNetwork{Network: transport.NewMemNetwork()}
		res, err := Run(Config{
			Setup:         scenario.Default(),
			Workload:      churnSpec(),
			Budget:        1.19,
			Sync:          clock.MethodNLOSVLC,
			Network:       tap,
			Rounds:        4,
			RoundDuration: 1,
			FramesPerRX:   2,
			Seed:          8,
			Chaos:         schedule,
			AckTimeout:    300 * time.Millisecond,
			Timeout:       60 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, tap
	}
	res, tap := run()
	trace := string(res.WorkloadTrace)
	occupied := strings.HasPrefix(trace, "0 0.000 arrive user=0 slot=0 ")
	for _, line := range strings.Split(trace, "\n") {
		occupied = occupied && !(strings.Contains(line, " depart ") && strings.Contains(line, " slot=0 "))
	}
	if !occupied {
		t.Fatalf("slot 0 is not occupied throughout:\n%s", trace)
	}
	if res.Trace.Len() != 2 || res.Rounds[0].ChaosEvents != 2 {
		t.Fatalf("applied %d chaos events (%d in round 0), want 2", res.Trace.Len(), res.Rounds[0].ChaosEvents)
	}

	reports := map[int]int{}
	for _, raw := range tap.up {
		m, _, _, err := frame.DecodeMAC(raw)
		if err != nil || m.Protocol != mac.ProtoReport {
			continue
		}
		rep, err := mac.DecodeReport(m.Payload)
		if err != nil {
			t.Fatal(err)
		}
		lit := 0
		for _, g := range rep.Gains {
			if g > 0 {
				lit++
			}
		}
		if rep.Gains[deadTX] != 0 {
			t.Errorf("RX %d report %d: failed TX %d reads gain %g", rep.RX, rep.Seq, deadTX, rep.Gains[deadTX])
		}
		switch {
		case rep.RX == 0 && lit != 0:
			t.Errorf("blocked slot 0, report %d: %d transmitters lit after a liveness refresh", rep.Seq, lit)
		case rep.RX == 1 && lit == 0:
			t.Errorf("occupied slot 1, report %d: dark channel", rep.Seq)
		}
		reports[rep.RX]++
	}
	if reports[0] != len(res.Rounds) || reports[1] != len(res.Rounds) {
		t.Fatalf("reports per slot %v over %d rounds", reports, len(res.Rounds))
	}

	// Replay every controller frame through TX 7's MAC, as its goroutine
	// does: it must never hold a swing. Some other TX must, or the run
	// served nobody.
	txs := make([]*mac.TXNode, scenario.Default().Grid.N())
	for j := range txs {
		txs[j] = mac.NewTXNode(j)
	}
	served := false
	for _, raw := range tap.down {
		d, _, err := frame.DecodeDownlink(raw)
		if err != nil {
			t.Fatal(err)
		}
		for _, tx := range txs {
			if _, err := tx.HandleDownlink(d); err != nil {
				t.Fatal(err)
			}
			served = served || tx.Communicating()
		}
		if txs[deadTX].Communicating() {
			t.Fatalf("failed TX %d commanded %v", deadTX, txs[deadTX].Swing())
		}
	}
	if !served {
		t.Fatal("no transmitter was ever commanded a swing")
	}

	again, _ := run()
	if !bytes.Equal(res.Trace.Bytes(), again.Trace.Bytes()) {
		t.Errorf("chaos traces diverged:\n%s\nvs\n%s", res.Trace.Bytes(), again.Trace.Bytes())
	}
	if !bytes.Equal(res.WorkloadTrace, again.WorkloadTrace) {
		t.Errorf("workload traces diverged:\n%s\nvs\n%s", res.WorkloadTrace, again.WorkloadTrace)
	}
}
