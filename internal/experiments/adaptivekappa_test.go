package experiments

import (
	"testing"

	"densevlc/internal/alloc"
	"densevlc/internal/channel"
	"densevlc/internal/scenario"
	"densevlc/internal/stats"
	"densevlc/internal/units"
)

// TestAdaptiveKappaFanOutMatchesSequential: AdaptiveKappaStudy's fan-out of
// Allocate over the instances returns, for every worker count, exactly the
// swings a sequential loop over the same environments returns.
func TestAdaptiveKappaFanOutMatchesSequential(t *testing.T) {
	set := scenario.Default()
	insts := set.RandomInstances(stats.NewRand(97), 11)
	envs := make([]*alloc.Env, len(insts))
	for i, inst := range insts {
		envs[i] = set.Env(inst, nil)
	}
	policies := []alloc.Policy{
		alloc.Heuristic{Kappa: 1.3, AllowPartial: true},
		alloc.AdaptiveKappa{KappaLow: 1.0, KappaHigh: 2.0, AllowPartial: true},
	}
	for _, p := range policies {
		for _, budget := range []units.Watts{0.3, 1.19} {
			want := make([]channel.Swings, len(envs))
			for i, env := range envs {
				s, err := p.Allocate(env, budget)
				if err != nil {
					t.Fatal(err)
				}
				want[i] = s
			}
			for _, workers := range []int{1, 2, 3, 8} {
				got := fanOut(Options{Workers: workers}, len(envs), func(i int) channel.Swings {
					s, err := p.Allocate(envs[i], budget)
					if err != nil {
						t.Error(err)
					}
					return s
				})
				for k := range want {
					for j := range want[k] {
						for i := range want[k][j] {
							if got[k][j][i] != want[k][j][i] {
								t.Fatalf("%s budget=%v workers=%d: item %d swing (%d,%d) = %v fanned out, %v sequential",
									p.Name(), budget, workers, k, j, i, got[k][j][i], want[k][j][i])
							}
						}
					}
				}
			}
		}
	}
}
