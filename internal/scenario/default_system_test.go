package scenario

import (
	"math"
	"testing"

	"densevlc/internal/alloc"
	"densevlc/internal/illum"
	"densevlc/internal/units"
)

// TestDefaultAllocatesScenario2: the paper's headline operating point — the
// Default deployment, the κ = 1.3 heuristic, the scenario 2 receivers and a
// 1.19 W budget — serves the receivers within the budget, and the allocator
// refuses an empty receiver set and a negative budget.
func TestDefaultAllocatesScenario2(t *testing.T) {
	set := Default()
	policy := alloc.Heuristic{Kappa: 1.3, AllowPartial: true}
	env := set.Env(Scenario2.RXPositions(), nil)
	if env.N() != 36 || env.M() != 4 {
		t.Errorf("env dims %dx%d", env.N(), env.M())
	}
	swings, err := policy.Allocate(env, 1.19)
	if err != nil {
		t.Fatal(err)
	}
	ev := alloc.Evaluate(env, swings)
	if ev.SumThroughput < 1e6 {
		t.Errorf("throughput = %v", ev.SumThroughput)
	}
	if ev.CommPower > 1.19+1e-9 {
		t.Errorf("power = %v over budget", ev.CommPower)
	}
	if _, err := policy.Allocate(set.Env(nil, nil), 1); err == nil {
		t.Error("empty receivers accepted")
	}
	if _, err := policy.Allocate(env, -1); err == nil {
		t.Error("negative budget accepted")
	}
}

// TestDefaultIlluminationMeetsISO8995: every LED at its bias flux lights the
// centred 2.2 m × 2.2 m area of interest to ISO 8995-1, at the paper's
// reported average (Fig. 5).
func TestDefaultIlluminationMeetsISO8995(t *testing.T) {
	set := Default()
	flux := make([]units.Lumens, set.Grid.N())
	for i := range flux {
		flux[i] = set.LED.LuminousFluxAtBias
	}
	m, err := illum.Compute(illum.Config{
		Emitters: set.Emitters(),
		Flux:     flux,
		PlaneZ:   set.RXPlaneZ,
		Region:   illum.CenteredRegion(set.Room, 2.2, 2.2),
	})
	if err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if !st.CompliesISO8995() {
		t.Errorf("default deployment should satisfy ISO 8995-1: %+v", st)
	}
	if math.Abs(st.Average.Lx()-564) > 20 {
		t.Errorf("average %v lux, paper reports 564", st.Average)
	}
}
