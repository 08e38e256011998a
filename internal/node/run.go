package node

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"densevlc/internal/alloc"
	"densevlc/internal/channel"
	"densevlc/internal/chaos"
	"densevlc/internal/clock"
	"densevlc/internal/mac"
	"densevlc/internal/mobility"
	"densevlc/internal/scenario"
	"densevlc/internal/stats"
	"densevlc/internal/transport"
	"densevlc/internal/units"
	"densevlc/internal/workload"
)

// Config wires a full asynchronous deployment.
type Config struct {
	Setup scenario.Setup
	// Trajectories drive a fixed receiver fleet (their count sets M).
	Trajectories []mobility.Trajectory
	// Workload, when non-nil, replaces Trajectories with a churn-driven
	// population of Fleet receiver slots, as sim.Config.Workload does. The
	// engine steps on the controller goroutine at each round boundary
	// (workload.Engine is single-goroutine), a free slot's photodiode is
	// dark, so the real pilot/report path delivers its dark channel and the
	// allocator withdraws its swing, and each user's traffic model sets its
	// frame demand.
	Workload *workload.Spec
	Policy   alloc.Policy
	Budget   units.Watts
	Sync     clock.Method
	Blocker  channel.Blocker
	// Network carries the control plane; nil selects in-memory. The run
	// closes it on exit.
	Network transport.Network
	// Rounds to run (zero: 5).
	Rounds int
	// RoundDuration advances the hub's virtual clock per round (zero: 1 s).
	RoundDuration units.Seconds
	// FramesPerRX is the data frames per receiver per round (zero: 4);
	// under a Workload it caps each user's demand.
	FramesPerRX int
	// MeasurementNoise is the channel-estimate relative std.
	MeasurementNoise float64
	Seed             int64
	// Chaos optionally schedules fault events (TX failures, blockage,
	// clock steps) replayed against the hub at round boundaries.
	Chaos *chaos.Schedule
	// Trigger enables the controller's event-driven re-allocation gate
	// (see mac.Trigger); the zero value solves every round.
	Trigger mac.Trigger
	// MaxAttempts bounds transmissions per data frame (zero: 2).
	MaxAttempts int
	// ReportTimeout bounds the wait for channel reports per round, and
	// AckTimeout the wait for acknowledgements per attempt pass (zero: 2 s
	// each). The in-memory transport delivers in microseconds, so tests
	// tighten these: they only matter when frames are lost.
	ReportTimeout time.Duration
	AckTimeout    time.Duration
	// Timeout bounds the whole run (zero: 60 s).
	Timeout time.Duration
}

func (c *Config) withDefaults() error {
	if c.Workload != nil {
		if len(c.Trajectories) != 0 {
			return errors.New("node: Workload and Trajectories are mutually exclusive")
		}
	} else if len(c.Trajectories) == 0 {
		return errors.New("node: no receivers")
	}
	if c.Policy == nil {
		c.Policy = alloc.Heuristic{Kappa: 1.3, AllowPartial: true}
	}
	if c.Rounds <= 0 {
		c.Rounds = 5
	}
	if c.RoundDuration <= 0 {
		c.RoundDuration = 1
	}
	if c.FramesPerRX <= 0 {
		c.FramesPerRX = 4
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 2
	}
	if c.ReportTimeout <= 0 {
		c.ReportTimeout = 2 * time.Second
	}
	if c.AckTimeout <= 0 {
		c.AckTimeout = 2 * time.Second
	}
	if c.Timeout <= 0 {
		c.Timeout = 60 * time.Second
	}
	return nil
}

// Result is the outcome of an asynchronous run.
type Result struct {
	Rounds []RoundStats
	// Steps is the workload engine's per-round population summary, index-
	// aligned with Rounds (nil without Config.Workload).
	Steps []workload.StepStats
	// Delivered counts application payloads handed to receivers.
	Delivered int
	// DeliveredPerRX breaks Delivered down by receiver.
	DeliveredPerRX []int
	// Trace records the chaos events applied during the run (empty without
	// a schedule). Its bytes are deterministic for a given seed+schedule.
	Trace *chaos.Trace
	// WorkloadTrace is the engine's canonical churn event log (nil without
	// Config.Workload): byte-identical across runs with the same seed and
	// spec.
	WorkloadTrace []byte
}

// Run spawns the controller, every transmitter and every receiver as
// goroutines over the transport, runs the configured number of rounds, and
// shuts everything down. It is RunContext with a background context — the
// run is still bounded by cfg.Timeout, but cannot be cancelled early.
func Run(cfg Config) (*Result, error) {
	//lint:ignore ctxflow context-free convenience entry point for mains; RunContext accepts the caller's context
	return RunContext(context.Background(), cfg)
}

// RunContext is Run under a caller-supplied context: cancelling ctx aborts
// the round loop and tears the deployment down, in addition to the
// cfg.Timeout bound.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	if err := cfg.withDefaults(); err != nil {
		return nil, err
	}
	n := cfg.Setup.Grid.N()
	traj := cfg.Trajectories
	var engine *workload.Engine
	if cfg.Workload != nil {
		var err error
		engine, err = workload.NewEngine(*cfg.Workload, cfg.Setup, cfg.Budget, stats.NewRand(cfg.Seed))
		if err != nil {
			return nil, err
		}
		// The hub reads slot positions through the engine-backed
		// trajectories, always from the controller goroutine (AdvanceTime
		// after the engine's step), so the engine's single-goroutine
		// contract holds.
		traj = engine.Trajectories()
	}
	m := len(traj)
	if err := cfg.Chaos.Validate(n, m); err != nil {
		return nil, err
	}

	net := cfg.Network
	if net == nil {
		net = transport.NewMemNetwork()
	}
	defer func() { _ = net.Close() }() // teardown; transport errors have no recovery path here

	hub := NewHub(cfg.Setup, traj, cfg.Blocker, cfg.Sync, cfg.MeasurementNoise, cfg.Seed)

	ctx, cancel := context.WithTimeout(ctx, cfg.Timeout)
	defer cancel()

	var wg sync.WaitGroup
	errCh := make(chan error, n+m)
	spawn := func(f func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := f(); err != nil {
				select {
				case errCh <- err:
				default:
				}
			}
		}()
	}

	for j := 0; j < n; j++ {
		link, err := net.NewNode()
		if err != nil {
			cancel()
			wg.Wait()
			return nil, fmt.Errorf("node: TX %d link: %w", j, err)
		}
		id := j
		spawn(func() error { return RunTX(ctx, id, link, hub) })
	}

	delivered := make(chan Delivery, 1024)
	for i := 0; i < m; i++ {
		link, err := net.NewNode()
		if err != nil {
			cancel()
			wg.Wait()
			return nil, fmt.Errorf("node: RX %d link: %w", i, err)
		}
		id := i
		spawn(func() error { return RunRX(ctx, id, n, link, hub, delivered) })
	}

	ctrl := mac.NewController(n, m, cfg.Policy, cfg.Budget, cfg.Setup.Params, cfg.Setup.LED)
	ctrl.Trigger = cfg.Trigger
	injector := chaos.NewInjector(cfg.Chaos)
	rounds, steps, runErr := runController(ctx, net.Controller(), hub, ctrl, cfg, engine, injector)

	// Stop the node goroutines and collect.
	cancel()
	wg.Wait()
	close(delivered)

	res := &Result{Rounds: rounds, Steps: steps, DeliveredPerRX: make([]int, m), Trace: injector.Trace()}
	if engine != nil {
		res.WorkloadTrace = engine.TraceBytes()
	}
	for d := range delivered {
		res.Delivered++
		if d.RX >= 0 && d.RX < m {
			res.DeliveredPerRX[d.RX]++
		}
	}
	if runErr != nil && !errors.Is(runErr, context.Canceled) {
		return res, runErr
	}
	select {
	case err := <-errCh:
		return res, err
	default:
	}
	return res, nil
}
