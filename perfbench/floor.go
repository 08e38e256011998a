package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"densevlc/internal/alloc"
	"densevlc/internal/channel"
	"densevlc/internal/cluster"
	"densevlc/internal/frame"
	"densevlc/internal/geom"
	"densevlc/internal/mac"
	"densevlc/internal/scenario"
	"densevlc/internal/stats"
	"densevlc/internal/units"
	"densevlc/internal/workload"
)

// floor-ctrl: a sharded mac.Controller on a 15×15 floor (N=225, the largest
// square the report wire accepts) under heavy churn, driven directly because
// sim and node reject more than 64 TXs.
const (
	floorSide         = 15
	floorFleet        = 64
	floorWattsPerSlot = 1.19 / 4
	floorMinEpochs    = 1000 // p99 needs at least 1000 samples
	floorWarmup       = 3
	floorSetupReps    = 15
	floorSampleEvery  = 4 // every 4th of the first floorMinEpochs epochs is scored and checked
	floorHeldOut      = 40
	floorClusterSpec  = "threshold:0.5"
)

// errReports marks an epoch whose reports the controller rejected or
// never got; the controller still decided on what it had.
var errReports = errors.New("reports failed")

// floorRun is the driver state of one floor-ctrl run.
type floorRun struct {
	set      scenario.Setup
	n, m     int
	budget   units.Watts
	spec     cluster.Spec
	policy   alloc.Policy
	engine   *workload.Engine
	mv       *scenario.Mover
	ctrl     *mac.Controller
	gains    [][]float64 // reported gains per slot
	wires    [][]byte    // encoded reports per slot
	accepted []bool      // per slot: the controller took this epoch's report
	prev     []bool      // slot activity last epoch
	epoch    int
	mirror   *triggerMirror // nil in the traced pass

	// counts for the layer metrics
	population, columns, codecBytes int
}

// floorEngine is the heavy-churn population: 4 arrivals/s, 8 s dwell,
// 0.25 m/s.
func floorEngine(set scenario.Setup, budget units.Watts, seed int64) (*workload.Engine, error) {
	sp := workload.DefaultSpec()
	sp.ArrivalRate = 4
	sp.MeanDwell = 8
	sp.Fleet = floorFleet
	sp.Speed = 0.25
	return workload.NewEngine(sp, set, budget, stats.NewRand(seed))
}

// newFloor builds the floor, the population and the sharded controller and
// runs the warm-up epochs. mirrored runs follow the trigger from the start,
// for the checks.
func newFloor(ctx context.Context, seed int64, policy alloc.Policy, mirrored bool) (*floorRun, error) {
	set := scenario.FloorGrid(floorSide, floorSide)
	f := &floorRun{set: set, n: set.Grid.N(), m: floorFleet, budget: units.Watts(floorWattsPerSlot * floorFleet), policy: policy}
	var err error
	if f.engine, err = floorEngine(set, f.budget, seed); err != nil {
		return nil, err
	}
	if f.spec, err = cluster.Parse(floorClusterSpec); err != nil {
		return nil, err
	}
	start := make([]geom.Vec, f.m)
	for i := range start {
		start[i] = f.engine.Position(i, 0)
	}
	f.mv = set.NewMover(start, nil)
	f.ctrl = mac.NewController(f.n, f.m, policy, f.budget, set.Params, set.LED)
	f.ctrl.Trigger = mac.Trigger{RelDelta: 0.05, MaxStaleEpochs: 8}
	f.ctrl.EnableSharding(f.spec, 1)
	f.gains = make([][]float64, f.m)
	for i := range f.gains {
		f.gains[i] = make([]float64, f.n)
	}
	f.wires = make([][]byte, f.m)
	f.accepted = make([]bool, f.m)
	f.prev = make([]bool, f.m)
	if mirrored {
		f.mirror = newMirror(f)
	}
	// Failed reports are left to the timed epochs to count.
	for e := 0; e < floorWarmup; e++ {
		_, _, plan, err := f.step(ctx, nil)
		if err != nil && !errors.Is(err, errReports) {
			return nil, fmt.Errorf("warm-up epoch %d: %w", e, err)
		}
		if f.mirror != nil {
			if _, err := f.mirror.observe(f.ctrl, f.gains, f.accepted, plan); err != nil {
				return nil, fmt.Errorf("warm-up epoch %d: %w", e, err)
			}
		}
	}
	return f, nil
}

// step runs one epoch: the workload step, the tenants' column refresh, one
// encoded report per slot, then the controller epoch from the first report
// decoded to the allocation frame serialized. A report the controller
// rejects fails the epoch but the controller still decides on what it has.
// plan holds no swings when ReallocateContext failed.
func (f *floorRun) step(ctx context.Context, tr *tracer) (ctrlEpoch, decision time.Duration, plan mac.Plan, err error) {
	t := units.Seconds(f.epoch)
	f.epoch++
	tr.begin(spEngineStep)
	st := f.engine.Step(t, 1)
	tr.end()
	f.population += st.Population
	for s := 0; s < f.m; s++ {
		active := f.engine.Active(s)
		switch {
		case active:
			tr.begin(spEnginePosition)
			p := f.engine.Position(s, t)
			tr.end()
			tr.begin(spMoveRX)
			f.mv.MoveRX(s, p)
			f.mv.Env().H.ColumnInto(f.gains[s], s)
			tr.end()
			f.columns++
		case f.prev[s]:
			clear(f.gains[s]) // departed: the photodiode goes dark
		}
		f.prev[s] = active
	}
	for s := range f.wires {
		tr.begin(spReportEncode)
		payload := mac.Report{RX: s, Seq: uint16(f.epoch), Gains: f.gains[s]}.Encode()
		tr.end()
		tr.begin(spSerializeMAC)
		raw, err := frame.SerializeMAC(frame.MAC{Dst: mac.ControllerAddr, Src: mac.RXAddr(s), Protocol: mac.ProtoReport, Payload: payload})
		tr.end()
		if err != nil {
			return 0, 0, mac.Plan{}, fmt.Errorf("report %d: %w", s, err)
		}
		f.wires[s] = raw
		f.codecBytes += len(raw)
	}

	t0 := time.Now()
	var ingestErr error
	for s, raw := range f.wires {
		f.codecBytes += len(raw)
		tr.begin(spDecodeMAC)
		m, _, _, err := frame.DecodeMAC(raw)
		tr.end()
		if err == nil {
			tr.begin(spHandleUplink)
			err = f.ctrl.HandleUplink(m)
			tr.end()
		}
		f.accepted[s] = err == nil
		if err != nil && ingestErr == nil {
			ingestErr = err
		}
	}
	tr.begin(spHaveFresh)
	fresh := f.ctrl.HaveFreshReports()
	tr.end()
	d0 := time.Now()
	tr.begin(spReallocate)
	plan, err = f.ctrl.ReallocateContext(ctx)
	tr.end()
	decision = time.Since(d0)
	if err != nil {
		return 0, 0, mac.Plan{}, fmt.Errorf("reallocate: %w", err)
	}
	tr.begin(spAllocationFrame)
	af, err := f.ctrl.AllocationFrame(plan)
	tr.end()
	var wire []byte
	if err == nil {
		tr.begin(spDownlinkSerialize)
		wire, err = af.Serialize()
		tr.end()
	}
	ctrlEpoch = time.Since(t0)
	f.codecBytes += len(wire)
	switch {
	case err != nil:
		return ctrlEpoch, decision, plan, fmt.Errorf("allocation frame: %w", err)
	case ingestErr != nil:
		return ctrlEpoch, decision, plan, fmt.Errorf("%w: %v", errReports, ingestErr)
	case !fresh:
		return ctrlEpoch, decision, plan, fmt.Errorf("%w: controller missing reports", errReports)
	}
	return ctrlEpoch, decision, plan, nil
}

// triggerMirror follows the documented mac.Trigger rule from outside the
// controller, to know which gains the controller holds and which it last
// solved on. It follows the reports the controller accepted, so it stays in
// step through epochs whose reports failed. When every column's basis
// equals the controller's gains, the controller's environment is the
// reported channel and a triggered sharded plan must equal a cold solve
// (the TestIncrementalVsScratch contract).
type triggerMirror struct {
	trigger mac.Trigger
	gains   [][]float64 // per slot: the last gains the controller accepted
	fresh   []bool      // per slot: a report accepted since the last decision
	basis   [][]float64 // per slot: the gains of its last solve
	health  []mac.LinkState
	stale   int
	seq     int
}

func newMirror(f *floorRun) *triggerMirror {
	tm := &triggerMirror{trigger: f.ctrl.Trigger, gains: make([][]float64, f.m), fresh: make([]bool, f.m),
		health: make([]mac.LinkState, f.n), seq: -1}
	for i := range tm.gains {
		tm.gains[i] = make([]float64, f.n) // a slot never heard from reads as dark
	}
	return tm
}

// observe advances the mirror past an epoch in which the controller
// accepted the reports marked in accepted, carrying sent, and decided plan
// (no swings when ReallocateContext failed). It reports whether the
// controller's environment now equals its solve basis, and an error when
// the controller solved or skipped against the rule.
func (tm *triggerMirror) observe(ctrl *mac.Controller, sent [][]float64, accepted []bool, plan mac.Plan) (bool, error) {
	anyFresh := false
	for i, ok := range accepted {
		if ok {
			tm.gains[i] = append(tm.gains[i][:0], sent[i]...)
			tm.fresh[i] = true
		}
		anyFresh = anyFresh || tm.fresh[i]
	}
	healthChanged := false
	for j := range tm.health {
		s := ctrl.TXState(j)
		healthChanged = healthChanged || s != tm.health[j]
		tm.health[j] = s
	}
	if plan.Swings == nil {
		return false, nil // a failed decision keeps the basis, staleness and freshness
	}
	solved := int(plan.Seq) != tm.seq
	tm.seq = int(plan.Seq)
	defer clear(tm.fresh) // every decision consumes the reports
	if tm.basis != nil && !anyFresh && !healthChanged {
		if solved {
			return false, errors.New("controller re-solved a quiet epoch")
		}
		return tm.current(), nil
	}
	var dirty []int
	full := tm.basis == nil || healthChanged
	if !full {
		for i, g := range tm.gains {
			if !tm.fresh[i] {
				continue
			}
			peak, maxDelta := 0.0, 0.0
			for j, base := range tm.basis[i] {
				peak = math.Max(peak, base)
				maxDelta = math.Max(maxDelta, math.Abs(g[j]-base))
			}
			if maxDelta > tm.trigger.RelDelta*peak {
				dirty = append(dirty, i)
			}
		}
		if len(dirty) == 0 {
			if tm.trigger.MaxStaleEpochs <= 0 || tm.stale+1 < tm.trigger.MaxStaleEpochs {
				tm.stale++
				if solved {
					return false, errors.New("controller re-solved an epoch the trigger skips")
				}
				return tm.current(), nil
			}
			full = true
		}
	}
	if !solved {
		return false, errors.New("controller skipped an epoch the trigger solves")
	}
	tm.stale = 0
	if full {
		tm.basis = make([][]float64, len(tm.gains))
		dirty = dirty[:0]
		for i := range tm.gains {
			dirty = append(dirty, i)
		}
	}
	for _, i := range dirty {
		tm.basis[i] = append(tm.basis[i][:0], tm.gains[i]...)
	}
	return tm.current(), nil
}

func (tm *triggerMirror) current() bool {
	for i, g := range tm.gains {
		for j, x := range g {
			if math.Float64bits(x) != math.Float64bits(tm.basis[i][j]) {
				return false
			}
		}
	}
	return true
}

// floorScore is the Eq. 12 system throughput of the commanded plan against
// the true channel and the analytic frame error rate of its served users.
func (f *floorRun) score(plan mac.Plan) (mbps, perSum float64, perN int) {
	h := f.mv.Env().H.Clone()
	f.engine.Mask(h)
	ev := alloc.Evaluate(&alloc.Env{Params: f.set.Params, H: h, LED: f.set.LED}, plan.Swings)
	for i, sinr := range ev.SINR {
		if f.engine.Active(i) && served(plan.Swings, i) {
			perSum += channel.FramePER(sinr, roomPayload, 5)
			perN++
		}
	}
	return ev.SumThroughput.Bps() / 1e6, perSum, perN
}

// check applies the plan checks: spend within budget, no swing to a free
// slot, and — when the controller's environment equals its solve basis —
// equality with a cold sharded solve on that environment.
func (f *floorRun) check(r *result, plan mac.Plan, envCurrent bool) {
	if p := plan.Swings.CommPower(f.set.Params.DynamicResistance); p.W() > f.budget.W()+quantSlack {
		r.gate("epoch %d: spend %.6f W over the %.2f W budget", f.epoch, p.W(), f.budget.W())
	}
	for i := 0; i < f.m; i++ {
		if !f.engine.Active(i) && served(plan.Swings, i) {
			r.gate("epoch %d: free slot %d holds swing", f.epoch, i)
		}
	}
	if !envCurrent {
		return
	}
	cold, err := cluster.NewWorkspace(f.spec, f.policy, 1).Solve(f.ctrl.Env(), f.budget)
	if err != nil {
		r.gate("epoch %d: cold solve: %v", f.epoch, err)
		return
	}
	for j := range cold {
		for i := range cold[j] {
			if math.Float64bits(cold[j][i].A()) != math.Float64bits(plan.Swings[j][i].A()) {
				r.gate("epoch %d: swing (%d,%d) = %v, cold solve %v", f.epoch, j, i, plan.Swings[j][i], cold[j][i])
				return
			}
		}
	}
}

// observe advances the trigger mirror, if any, past an epoch. It reports
// whether the controller's environment equals its solve basis; a decision
// against the trigger's rule fails the run and stops the mirror.
func (f *floorRun) observe(r *result, plan mac.Plan) bool {
	if f.mirror == nil {
		return false
	}
	envCurrent, err := f.mirror.observe(f.ctrl, f.gains, f.accepted, plan)
	if err != nil {
		r.gate("epoch %d: %v", f.epoch, err)
		f.mirror = nil
	}
	return envCurrent
}

func runFloor(o opts) (*result, error) {
	r := newResult()
	var f *floorRun
	setup, err := medianOf(floorSetupReps, func() error {
		var err error
		f, err = newFloor(o.ctx, o.seed, roomPolicy, true)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	passDur := o.dur
	if o.trace {
		passDur = o.dur / 2
	}

	// Untraced pass. Between epochs, outside the timed sections, the
	// mirror follows the trigger; every floorSampleEvery-th of the first
	// floorMinEpochs epochs that decided a plan is scored and checked,
	// whether its reports failed or not.
	bs := newBlocks(passDur)
	var sys, per float64
	var sysN, perN, coldChecks int
	var firstErr error
	done := false
	for e := 0; e < floorMinEpochs || !done; e++ {
		r.attempted++
		b := bs.cur()
		b.resume()
		ce, dec, plan, err := f.step(o.ctx, nil)
		b.pause(time.Now())
		done = bs.advance(true)
		if err != nil {
			r.failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("epoch %d: %w", f.epoch, err)
				r.note("%v", firstErr)
			}
		} else {
			b.epochs++
			b.epochLat = append(b.epochLat, ms(ce))
			b.decision = append(b.decision, ms(dec))
		}
		envCurrent := f.observe(r, plan)
		if plan.Swings != nil && e < floorMinEpochs && e%floorSampleEvery == 0 {
			mbps, ps, pn := f.score(plan)
			sys, per, perN = sys+mbps, per+ps, perN+pn
			sysN++
			f.check(r, plan, envCurrent)
			if envCurrent {
				coldChecks++
			}
		}
	}
	epochs, busy := bs.total()
	if epochs == 0 {
		return nil, fmt.Errorf("no timed epoch completed: all %d failed, first %v", r.failed, firstErr)
	}
	r.e2e["setup_s"] = setup
	bs.report(r)
	r.e2e["system_mbps"] = sys / float64(max(sysN, 1))
	r.note("untraced: %d epochs in %.3f s on %d TXs in %d blocks; %d plans scored, %d compared with a cold solve",
		epochs, busy.Seconds(), f.n, len(bs.list), sysN, coldChecks)
	if coldChecks == 0 {
		r.gate("no sampled plan was solved on the reported channel, so none was compared with a cold solve")
	}
	if err := sameEngineTrace(f, o.seed); err != nil {
		r.gate("seed %d: %v", o.seed, err)
	}
	// The live heap the floor, population and controller hold.
	with := liveHeap()
	runtime.KeepAlive(f)
	f = nil
	r.e2e["live_heap_mb"] = mib(with, liveHeap())
	floorHeldOutChecks(o, r)
	if !o.trace {
		return r, nil
	}

	// Traced pass on a fresh controller whose policy is timed. Epochs
	// alternate between traced and untraced; the untraced ones are the
	// basis of the tracing overhead.
	r.zeroLayers()
	r.layers["waveform_per"] = per / float64(max(perN, 1))
	tr := newTracer()
	ft, err := newFloor(o.ctx, o.seed, timedPolicy{inner: roomPolicy, tr: tr}, false)
	if err != nil {
		return nil, fmt.Errorf("traced setup: %w", err)
	}
	ft.population, ft.columns, ft.codecBytes = 0, 0, 0
	tr.reset() // the warm-up solves are set-up, not traced epochs
	traced, untraced := newMeter(), newMeter()
	lastSeq := -1
	var all, solves, clusters, maxTXs, dirty int
	for ; all < 2 || traced.busy+untraced.busy < passDur; all++ {
		calls := tr.count[spPolicy]
		m := traced
		if tr.paused = all%2 == 1; tr.paused {
			m = untraced
		}
		m.resume()
		tr.beginEpoch()
		_, _, plan, err := ft.step(o.ctx, tr)
		tr.end()
		m.pause(time.Now())
		if err != nil {
			r.gate("traced pass epoch %d: %v", ft.epoch, err)
			break
		}
		if int(plan.Seq) != lastSeq {
			solves++
			lastSeq = int(plan.Seq)
		}
		if !tr.paused {
			c := ft.ctrl.Clustering()
			clusters += c.K()
			maxTXs += c.MaxTXs()
			dirty += int(tr.count[spPolicy] - calls)
		}
	}
	tr.paused = false
	tr.closeBreakdown(r)
	n := tr.epochs
	r.layers["workload.population_mean"] = perEpoch(float64(ft.population), all)
	r.layers["channel.columns_per_epoch"] = perEpoch(float64(ft.columns), all)
	r.layers["frame.bytes_per_epoch"] = perEpoch(float64(ft.codecBytes), all)
	r.layers["mac.solve_ratio"] = perEpoch(float64(solves), all)
	r.layers["cluster.clusters"] = perEpoch(float64(clusters), n)
	r.layers["cluster.max_txs"] = perEpoch(float64(maxTXs), n)
	r.layers["cluster.dirty_frac"] = float64(dirty) / float64(max(clusters, 1))
	r.layers["trace.overhead_frac"] = perEpoch(traced.busy.Seconds(), n)/perEpoch(untraced.busy.Seconds(), all-n) - 1
	path, err := tr.write(o.traceDir, o.workload, o.seed)
	if err != nil {
		return nil, fmt.Errorf("trace file: %w", err)
	}
	r.note("traced: %d epochs in %.3f s; spans in %s", n, traced.busy.Seconds(), path)
	return r, nil
}

// sameEngineTrace replays the run's workload alone and compares the churn
// event logs byte for byte.
func sameEngineTrace(f *floorRun, seed int64) error {
	g, err := floorEngine(f.set, f.budget, seed)
	if err != nil {
		return err
	}
	for e := 0; e < f.epoch; e++ {
		g.Step(units.Seconds(e), 1)
	}
	if !bytes.Equal(f.engine.TraceBytes(), g.TraceBytes()) {
		return errors.New("workload trace differs on replay")
	}
	return nil
}

// floorHeldOutChecks runs a short floor twice on the held-out seed, which
// must run without a failed epoch, with every check on every epoch that
// decided a plan, and compares the two runs' scores.
func floorHeldOutChecks(o opts, r *result) {
	held := heldOutSeed(o.seed)
	var runs [2][]float64
	for rep := range runs {
		f, err := newFloor(o.ctx, held, roomPolicy, true)
		if err != nil {
			r.gate("held-out seed %d: %v", held, err)
			return
		}
		for e := 0; e < floorHeldOut && f.mirror != nil; e++ {
			_, _, plan, err := f.step(o.ctx, nil)
			if err != nil {
				r.gate("held-out seed %d epoch %d: %v", held, f.epoch, err)
			}
			envCurrent := f.observe(r, plan)
			if plan.Swings == nil {
				continue
			}
			f.check(r, plan, envCurrent)
			mbps, _, _ := f.score(plan)
			runs[rep] = append(runs[rep], mbps)
		}
	}
	if len(runs[0]) != len(runs[1]) {
		r.gate("held-out seed %d: %d then %d epochs checked", held, len(runs[0]), len(runs[1]))
		return
	}
	for e := range runs[0] {
		if math.Float64bits(runs[0][e]) != math.Float64bits(runs[1][e]) {
			r.gate("held-out seed %d epoch %d: throughput %v then %v", held, e, runs[0][e], runs[1][e])
			return
		}
	}
}
