package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"densevlc/internal/alloc"
	"densevlc/internal/channel"
	"densevlc/internal/clock"
	"densevlc/internal/frame"
	"densevlc/internal/geom"
	"densevlc/internal/mac"
	"densevlc/internal/optics"
	"densevlc/internal/phy"
	"densevlc/internal/scenario"
	"densevlc/internal/sim"
	"densevlc/internal/stats"
	"densevlc/internal/transport"
	"densevlc/internal/units"
	"densevlc/internal/workload"
)

// Room workloads: sim.Run on the paper's 36-TX room under the churn
// experiment's 1.0/s row. room-wave adds the waveform data phase.
const (
	roomBudget     units.Watts = 1.19
	roomPayload                = 64
	waveFrames                 = 2    // data frames per served receiver per epoch
	quantSlack                 = 1e-3 // W: wire swings round to whole milliamps
	roomSetupReps              = 25
	roomSyncRounds             = 40 // one churn experiment row per sim.Run
	roomSyncPool               = 16
	roomWaveRounds             = 40
	roomWavePool               = 6
)

var roomPolicy = alloc.Heuristic{Kappa: 1.3, AllowPartial: true}

func roomConfig(wave bool, seed int64, rounds int) sim.Config {
	sp := workload.DefaultSpec()
	sp.ArrivalRate = 1.0
	sp.MeanDwell = 12
	sp.MinWattsPerUser = 0.2 // capacity gate: at most 5 of the 8 slots
	cfg := sim.Config{
		Setup:          scenario.Default(),
		Workload:       &sp,
		Policy:         roomPolicy,
		Budget:         roomBudget,
		Rounds:         rounds,
		RoundDuration:  1,
		FramesPerRound: waveFrames,
		PayloadLen:     roomPayload,
		Trigger:        mac.Trigger{RelDelta: 0.05, MaxStaleEpochs: 8},
		Seed:           seed,
	}
	if wave {
		cfg.WaveformPHY = true
		cfg.Sync = clock.MethodNLOSVLC
	}
	return cfg
}

// roomOut is the part of a run the checks compare bit for bit.
type roomOut struct {
	sum   []units.BitsPerSecond
	per   [][]float64
	trace []byte
}

func outOf(res *sim.Result) roomOut {
	o := roomOut{trace: res.WorkloadTrace}
	for _, rm := range res.Rounds {
		o.sum = append(o.sum, rm.Eval.SumThroughput)
		o.per = append(o.per, rm.PER)
	}
	return o
}

// diff reports the first difference between two runs' outputs.
func (a roomOut) diff(b roomOut) error {
	if !bytes.Equal(a.trace, b.trace) {
		return errors.New("workload traces differ")
	}
	if len(a.sum) != len(b.sum) {
		return fmt.Errorf("%d rounds vs %d", len(a.sum), len(b.sum))
	}
	for k := range a.sum {
		if math.Float64bits(a.sum[k].Bps()) != math.Float64bits(b.sum[k].Bps()) {
			return fmt.Errorf("round %d: throughput %v vs %v", k, a.sum[k], b.sum[k])
		}
		if len(a.per[k]) != len(b.per[k]) {
			return fmt.Errorf("round %d: %d PERs vs %d", k, len(a.per[k]), len(b.per[k]))
		}
		for i := range a.per[k] {
			if math.Float64bits(a.per[k][i]) != math.Float64bits(b.per[k][i]) {
				return fmt.Errorf("round %d RX %d: PER %v vs %v", k, i, a.per[k][i], b.per[k][i])
			}
		}
	}
	return nil
}

// served reports whether receiver i holds swing in the commanded plan.
func served(s channel.Swings, i int) bool {
	for j := range s {
		if s[j][i] > 0 {
			return true
		}
	}
	return false
}

// checkRoom applies the per-round checks to one sim.Run result: spend
// within budget (plus the wire's rounding slack) and no swing to a free
// slot.
func checkRoom(r *result, res *sim.Result, seed int64) {
	for _, rm := range res.Rounds {
		if rm.Eval.CommPower.W() > roomBudget.W()+quantSlack {
			r.gate("seed %d round %d: spend %.6f W over the %.2f W budget", seed, rm.Round, rm.Eval.CommPower.W(), roomBudget.W())
		}
		for i, on := range rm.Churn.Active {
			if !on && served(rm.Swings, i) {
				r.gate("seed %d round %d: free slot %d holds swing", seed, rm.Round, i)
			}
		}
	}
}

func runRoom(o opts, wave bool) (*result, error) {
	r := newResult()
	rounds, pool := roomSyncRounds, roomSyncPool
	if wave {
		rounds, pool = roomWaveRounds, roomWavePool
	}
	setup, err := medianOf(roomSetupReps, func() error {
		// sim.Run's construction plus one epoch with no user to serve.
		cfg := roomConfig(wave, subSeed(o.seed, 0), 1)
		cfg.Workload.ArrivalRate = 0
		_, err := sim.Run(cfg)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}

	passDur := o.dur
	if o.trace {
		passDur = o.dur / 2
	}
	bs := newBlocks(passDur)
	firsts := map[int64]roomOut{}
	var sys, per float64
	var sysN, perN int
	done := false
	for k := 0; !done; k++ {
		seed := subSeed(o.seed, k%pool)
		cfg := roomConfig(wave, seed, rounds)
		probe := newProbe()
		cfg.Network = probe
		r.attempted += rounds
		b := bs.cur()
		probe.timed = b.meter
		b.resume() // restarted at the first pilot; a run that fails before it is timed whole
		res, err := sim.Run(cfg)
		end := time.Now()
		b.pause(end)
		done = bs.advance((k+1)%pool == 0)
		if err != nil {
			r.failed += rounds
			r.note("sim.Run seed %d: %v", seed, err)
			continue
		}
		b.epochs += len(res.Rounds)
		b.epochLat = append(b.epochLat, probe.epochMillis(end)...)
		b.decision = append(b.decision, probe.turnarounds...)
		checkRoom(r, res, seed)
		out := outOf(res)
		if first, ok := firsts[seed]; ok {
			if err := first.diff(out); err != nil {
				r.gate("seed %d repeated: %v", seed, err)
			}
			continue
		}
		firsts[seed] = out
		for _, rm := range res.Rounds {
			sys += rm.Eval.SumThroughput.Bps() / 1e6
			sysN++
			for i, p := range rm.PER {
				if rm.Churn.Active[i] && served(rm.Swings, i) {
					per += p
					perN++
				}
			}
		}
	}
	epochs, busy := bs.total()
	if epochs == 0 {
		return nil, errors.New("no epoch completed")
	}
	r.e2e["setup_s"] = setup
	bs.report(r)
	r.e2e["system_mbps"] = sys / float64(max(sysN, 1))
	if r.e2e["live_heap_mb"], err = roomLiveHeap(wave, subSeed(o.seed, 0), rounds); err != nil {
		r.gate("live heap run: %v", err)
	}
	r.note("untraced: %d epochs in %.3f s over %d inputs in %d blocks", epochs, busy.Seconds(), len(firsts), len(bs.list))

	// The checks again on a held-out seed, twice for determinism.
	held := heldOutSeed(o.seed)
	var heldOut []roomOut
	for rep := 0; rep < 2; rep++ {
		res, err := sim.Run(roomConfig(wave, held, rounds))
		if err != nil {
			r.gate("held-out seed %d: %v", held, err)
			break
		}
		checkRoom(r, res, held)
		heldOut = append(heldOut, outOf(res))
	}
	if len(heldOut) == 2 {
		if err := heldOut[0].diff(heldOut[1]); err != nil {
			r.gate("held-out seed %d repeated: %v", held, err)
		}
	}
	if !o.trace {
		return r, nil
	}

	// Traced pass: the epoch replica, each input followed by an untraced
	// sim.Run of the same input, which it must match bit for bit and which
	// is the basis of the tracing overhead.
	r.zeroLayers()
	r.layers["waveform_per"] = per / float64(max(perN, 1))
	tr := newTracer()
	timed := timedPolicy{inner: roomPolicy, tr: tr}
	var st replicaStats
	traced, untraced := newMeter(), newMeter()
	for k := 0; k < 1 || traced.busy+untraced.busy < passDur; k++ {
		seed := subSeed(o.seed, k%pool)
		cfg := roomConfig(wave, seed, rounds)
		cfg.Policy = timed
		traced.resume()
		out, err := replicaRun(o.ctx, cfg, tr, &st)
		traced.pause(time.Now())
		if err != nil {
			r.gate("replica seed %d: %v", seed, err)
			break
		}
		untraced.resume()
		res, err := sim.Run(roomConfig(wave, seed, rounds))
		untraced.pause(time.Now())
		if err != nil {
			r.gate("reference sim.Run seed %d: %v", seed, err)
			break
		}
		if err := outOf(res).diff(out); err != nil {
			r.gate("replica seed %d differs from sim.Run: %v", seed, err)
		}
	}
	tr.closeBreakdown(r)
	n := tr.epochs
	r.layers["workload.population_mean"] = perEpoch(float64(st.population), n)
	r.layers["frame.bytes_per_epoch"] = perEpoch(float64(st.codecBytes), n)
	r.layers["transport.frames_per_epoch"] = perEpoch(float64(st.sends), n)
	r.layers["mac.solve_ratio"] = perEpoch(float64(st.solves), n)
	r.layers["phy.frames_per_epoch"] = perEpoch(float64(st.phyFrames), n)
	r.layers["trace.overhead_frac"] = traced.busy.Seconds()/untraced.busy.Seconds() - 1
	path, err := tr.write(o.traceDir, o.workload, o.seed)
	if err != nil {
		return nil, fmt.Errorf("trace file: %w", err)
	}
	r.note("traced: %d epochs in %.3f s; spans in %s", n, traced.busy.Seconds(), path)
	return r, nil
}

// roomLiveHeap runs one input again, untimed, and measures the heap the
// running system holds halfway through it, net of what was live before.
func roomLiveHeap(wave bool, seed int64, rounds int) (float64, error) {
	cfg := roomConfig(wave, seed, rounds)
	probe := newProbe()
	probe.heapAt = rounds / 2
	cfg.Network = probe
	base := liveHeap()
	if _, err := sim.Run(cfg); err != nil {
		return 0, err
	}
	return mib(probe.heapBytes, base), nil
}

// replicaStats are the counts the replica gathers for the layer metrics.
type replicaStats struct {
	population, solves, codecBytes, sends, phyFrames int
}

// replica is sim.Run's epoch loop for a churn workload without chaos,
// cache or measurement noise, rebuilt from the packages' public calls with
// a span around each call. It must reproduce sim.Run bit for bit; the
// traced pass checks that per input.
type replica struct {
	cfg      sim.Config
	tr       *tracer
	st       *replicaStats
	rng      *rand.Rand
	engine   *workload.Engine
	tracker  *workload.Tracker
	ctrl     *mac.Controller
	ctrlLink transport.ControllerLink
	txNodes  []*mac.TXNode
	txLinks  []transport.NodeLink
	rxNodes  []*mac.RXNode
	rxLinks  []transport.NodeLink
	emitters []optics.Emitter
	active   []bool
	lastSeq  int
	out      roomOut
}

func replicaRun(ctx context.Context, cfg sim.Config, tr *tracer, st *replicaStats) (roomOut, error) {
	if cfg.MeasurementNoise != 0 || cfg.Chaos != nil || cfg.CacheQuantum != 0 || cfg.Blocker != nil ||
		(cfg.WaveformPHY && cfg.Sync != clock.MethodNLOSVLC) {
		return roomOut{}, errors.New("replica: configuration outside the room workloads")
	}
	rp := &replica{cfg: cfg, tr: tr, st: st, rng: stats.NewRand(cfg.Seed), lastSeq: -1}
	n, m := cfg.Setup.Grid.N(), cfg.Workload.Fleet
	var err error
	if rp.engine, err = workload.NewEngine(*cfg.Workload, cfg.Setup, cfg.Budget, stats.SplitRand(rp.rng)); err != nil {
		return roomOut{}, err
	}
	rp.tracker = workload.NewTracker(m)
	net := transport.NewMemNetwork()
	defer func() { _ = net.Close() }() // in-memory teardown has nothing to report
	rp.ctrlLink = net.Controller()
	rp.ctrl = mac.NewController(n, m, cfg.Policy, cfg.Budget, cfg.Setup.Params, cfg.Setup.LED)
	rp.ctrl.Trigger = cfg.Trigger
	rp.txNodes, rp.txLinks = make([]*mac.TXNode, n), make([]transport.NodeLink, n)
	for j := range rp.txNodes {
		rp.txNodes[j] = mac.NewTXNode(j)
		if rp.txLinks[j], err = net.NewNode(); err != nil {
			return roomOut{}, err
		}
	}
	rp.rxNodes, rp.rxLinks = make([]*mac.RXNode, m), make([]transport.NodeLink, m)
	for i := range rp.rxNodes {
		rp.rxNodes[i] = mac.NewRXNode(i, n)
		if rp.rxLinks[i], err = net.NewNode(); err != nil {
			return roomOut{}, err
		}
	}
	rp.emitters = cfg.Setup.Emitters()
	for round := 0; round < cfg.Rounds; round++ {
		tr.beginEpoch()
		err := rp.epoch(ctx, round)
		tr.end()
		if err != nil {
			return roomOut{}, fmt.Errorf("round %d: %w", round, err)
		}
	}
	rp.out.trace = rp.engine.TraceBytes()
	return rp.out, nil
}

func (rp *replica) recv(l transport.NodeLink) []byte {
	rp.tr.begin(spRecv)
	raw := <-l.Downlink()
	rp.tr.end()
	return raw
}

func (rp *replica) decode(raw []byte) (frame.Downlink, error) {
	rp.st.codecBytes += len(raw)
	rp.tr.begin(spDecodeDownlink)
	defer rp.tr.end()
	d, _, err := frame.DecodeDownlink(raw)
	return d, err
}

func (rp *replica) multicast(d frame.Downlink) error {
	rp.tr.begin(spDownlinkSerialize)
	wire, err := d.Serialize()
	rp.tr.end()
	if err != nil {
		return err
	}
	rp.st.codecBytes += len(wire)
	rp.st.sends++
	rp.tr.begin(spMulticast)
	defer rp.tr.end()
	return rp.ctrlLink.Multicast(wire)
}

// deliver hands the controller's last multicast to every TX's MAC and
// drains it from the receivers' links, as the nodes' radios would.
func (rp *replica) deliver(pilotTX int) error {
	entered := false
	for k, node := range rp.txNodes {
		d, err := rp.decode(rp.recv(rp.txLinks[k]))
		if err != nil {
			return fmt.Errorf("TX %d decode: %w", k, err)
		}
		rp.tr.begin(spTXHandleDownlink)
		action, err := node.HandleDownlink(d)
		rp.tr.end()
		if err != nil {
			return err
		}
		entered = entered || (action == mac.TXPilotSlot && k == pilotTX)
	}
	for _, l := range rp.rxLinks {
		rp.recv(l)
	}
	if pilotTX >= 0 && !entered {
		return fmt.Errorf("TX %d never entered its pilot slot", pilotTX)
	}
	return nil
}

func (rp *replica) epoch(ctx context.Context, round int) error {
	cfg, tr, st := rp.cfg, rp.tr, rp.st
	n, m := len(rp.txNodes), len(rp.rxNodes)
	t := units.Seconds(float64(round) * cfg.RoundDuration.S())

	tr.begin(spEngineStep)
	step := rp.engine.Step(t, cfg.RoundDuration)
	tr.end()
	st.population += step.Population
	pos := make([]geom.Vec, m)
	tr.begin(spEnginePosition)
	for i := range pos {
		pos[i] = rp.engine.Position(i, t)
	}
	tr.end()
	tr.begin(spDetectors)
	dets := cfg.Setup.Detectors(pos)
	tr.end()
	tr.begin(spBuildMatrix)
	trueH := channel.BuildMatrix(rp.emitters, dets, nil)
	tr.end()
	tr.begin(spEngineMask)
	rp.engine.Mask(trueH)
	tr.end()

	// Measurement phase: one pilot slot per TX.
	for j := 0; j < n; j++ {
		tr.begin(spPilotFrame)
		pf, err := rp.ctrl.PilotFrame(j)
		tr.end()
		if err != nil {
			return err
		}
		if err := rp.multicast(pf); err != nil {
			return err
		}
		if err := rp.deliver(j); err != nil {
			return err
		}
		tr.begin(spRXRecord)
		for i, rx := range rp.rxNodes {
			if err := rx.RecordMeasurement(j, math.Max(trueH.Gain(j, i), 0)); err != nil {
				tr.end()
				return err
			}
		}
		tr.end()
	}

	// Reports up, into the controller.
	for _, rx := range rp.rxNodes {
		tr.begin(spRXRoundComplete)
		done := rx.RoundComplete()
		tr.end()
		if !done {
			return fmt.Errorf("RX %d round incomplete", rx.ID)
		}
		tr.begin(spRXBuildReport)
		rep := rx.BuildReport()
		tr.end()
		tr.begin(spSerializeMAC)
		raw, err := frame.SerializeMAC(rep)
		tr.end()
		if err != nil {
			return err
		}
		st.codecBytes += len(raw)
		st.sends++
		tr.begin(spSendUplink)
		err = rp.rxLinks[rx.ID].SendUplink(raw)
		tr.end()
		if err != nil {
			return err
		}
	}
	for i := 0; i < m; i++ {
		tr.begin(spRecv)
		raw := <-rp.ctrlLink.Uplink()
		tr.end()
		st.codecBytes += len(raw)
		tr.begin(spDecodeMAC)
		f, _, _, err := frame.DecodeMAC(raw)
		tr.end()
		if err != nil {
			return fmt.Errorf("uplink decode: %w", err)
		}
		tr.begin(spHandleUplink)
		err = rp.ctrl.HandleUplink(f)
		tr.end()
		if err != nil {
			return err
		}
	}
	tr.begin(spHaveFresh)
	fresh := rp.ctrl.HaveFreshReports()
	tr.end()
	if !fresh {
		return errors.New("controller missing reports")
	}

	// Decision and dispatch.
	tr.begin(spReallocate)
	plan, err := rp.ctrl.ReallocateContext(ctx)
	tr.end()
	if err != nil {
		return err
	}
	if int(plan.Seq) != rp.lastSeq {
		st.solves++
		rp.lastSeq = int(plan.Seq)
	}
	tr.begin(spAllocationFrame)
	af, err := rp.ctrl.AllocationFrame(plan)
	tr.end()
	if err != nil {
		return err
	}
	if err := rp.multicast(af); err != nil {
		return err
	}
	if err := rp.deliver(-1); err != nil {
		return err
	}
	tr.begin(spTXCommand)
	cmd := channel.NewSwings(n, m)
	for j, node := range rp.txNodes {
		if node.Communicating() {
			cmd[j][node.Cmd.RX] = node.Swing()
		}
	}
	tr.end()

	// Data phase, scored against the true channel.
	trueEnv := &alloc.Env{Params: cfg.Setup.Params, H: trueH, LED: cfg.Setup.LED}
	tr.begin(spEvaluate)
	ev := alloc.Evaluate(trueEnv, cmd)
	tr.end()
	rp.out.sum = append(rp.out.sum, ev.SumThroughput)
	tr.begin(spEngineActiveMask)
	rp.active = rp.engine.ActiveMask(rp.active)
	tr.end()
	tr.begin(spTrackerObserve)
	rp.tracker.Observe(rp.active, plan.ServedBy, plan.Leader)
	tr.end()
	var per []float64
	if cfg.WaveformPHY {
		if per, err = rp.dataPhase(plan, trueH); err != nil {
			return err
		}
	} else {
		const bt = 5 // sim's analytic data phase: 1 MHz noise band, 5 µs chips
		per = make([]float64, m)
		tr.begin(spFramePER)
		for i, sinr := range ev.SINR {
			per[i] = channel.FramePER(sinr, cfg.PayloadLen, bt)
		}
		tr.end()
	}
	rp.out.per = append(rp.out.per, per)
	return nil
}

// dataPhase is sim's waveform data phase under NLOS-VLC synchronisation
// and no injected clock skew.
func (rp *replica) dataPhase(plan mac.Plan, trueH *channel.Matrix) ([]float64, error) {
	p := rp.cfg.Setup.Params
	scale := p.Responsivity.APerW() * p.WallPlugEfficiency * p.DynamicResistance.Ohms()
	noiseStd := units.Amperes(math.Sqrt(p.NoisePower().A2()))
	sq := func(x float64) float64 { return x * x }
	per := make([]float64, trueH.M)
	for rx := range per {
		if len(plan.ServedBy[rx]) == 0 {
			per[rx] = 1
			continue
		}
		linkRng := stats.SplitRand(rp.rng)
		rp.tr.begin(spPhyLink)
		link, err := phy.NewLink(phy.Config{SymbolRate: 100e3, SampleRate: 1e6, NoiseStd: noiseStd}, linkRng)
		rp.tr.end()
		if err != nil {
			return nil, err
		}
		var amps []units.Amperes
		members := plan.ServedBy[rx]
		for _, tx := range members {
			amps = append(amps, units.Amperes(scale*trueH.Gain(tx, rx)*sq(rp.txNodes[tx].Swing().A()/2)))
		}
		all := append([]units.Amperes(nil), amps...)
		for j, node := range rp.txNodes {
			if !node.Communicating() || node.Cmd.RX == rx {
				continue
			}
			if a := units.Amperes(scale * trueH.Gain(j, rx) * sq(node.Swing().A()/2)); a > 0 {
				all = append(all, a)
			}
		}
		leader := plan.Leader[rx]
		cfgPER := phy.PERConfig{
			PayloadLen:    rp.cfg.PayloadLen,
			Frames:        rp.cfg.FramesPerRound,
			ACKTurnaround: 17e-3,
			OffsetFn: func(r *rand.Rand, idx int) phy.TXTiming {
				ppm := 40*r.Float64() - 20
				if idx >= len(amps) {
					return phy.TXTiming{Offset: units.Seconds(r.Float64() * 10e-3), Continuous: true, ClockPPM: ppm}
				}
				var off units.Seconds
				if members[idx] == leader {
					return phy.TXTiming{Offset: off, ClockPPM: ppm}
				}
				off += units.Seconds(r.Float64() * 1.2e-6)
				return phy.TXTiming{Offset: off, ClockPPM: ppm}
			},
		}
		rp.tr.begin(spMeasurePER)
		res, err := link.MeasurePER(cfgPER, all)
		rp.tr.end()
		if err != nil {
			return nil, err
		}
		rp.st.phyFrames += rp.cfg.FramesPerRound
		per[rx] = res.PER
	}
	return per, nil
}
