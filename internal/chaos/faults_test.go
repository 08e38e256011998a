package chaos

import (
	"math"
	"reflect"
	"testing"

	"densevlc/internal/channel"
	"densevlc/internal/stats"
)

var _ Target = (*Faults)(nil)

// randomMatrix fills an n×m channel with positive gains.
func randomMatrix(seed int64, n, m int) *channel.Matrix {
	rng := stats.NewRand(seed)
	h := channel.NewMatrix(n, m)
	for j := range h.H {
		for i := range h.H[j] {
			h.H[j][i] = 1e-6 * rng.Float64()
		}
	}
	return h
}

func TestFaultsClampAttenuation(t *testing.T) {
	h := randomMatrix(1, 2, 3)
	f := NewFaults(2, 3)
	f.SetRXAttenuation(0, -0.5)
	f.SetRXAttenuation(1, 1.7)
	f.SetRXAttenuation(2, 0.25)
	for tx := 0; tx < 2; tx++ {
		if g := f.Gain(h, tx, 0); g != 0 {
			t.Errorf("keep -0.5 not clamped to 0: TX %d gain %g", tx, g)
		}
		if g := f.Gain(h, tx, 1); g != h.Gain(tx, 1) {
			t.Errorf("keep 1.7 not clamped to 1: TX %d gain %g, want %g", tx, g, h.Gain(tx, 1))
		}
		if g := f.Gain(h, tx, 2); g != h.Gain(tx, 2)*0.25 {
			t.Errorf("keep 0.25: TX %d gain %g, want %g", tx, g, h.Gain(tx, 2)*0.25)
		}
	}
	f.SetRXAttenuation(0, 1)
	if g := f.Gain(h, 1, 0); g != h.Gain(1, 0) {
		t.Errorf("unblocked RX 0: gain %g, want %g", g, h.Gain(1, 0))
	}
}

func TestFaultsIgnoreOutOfRange(t *testing.T) {
	f := NewFaults(3, 2)
	want := NewFaults(3, 2)
	f.FailTX(-1)
	f.FailTX(3)
	f.RecoverTX(7)
	f.SetRXAttenuation(-1, 0)
	f.SetRXAttenuation(2, 0)
	f.SkewClock(-1, 1)
	f.SkewClock(3, 1)
	if !reflect.DeepEqual(f, want) {
		t.Errorf("out-of-range events changed the state: %+v", f)
	}
	if f.Failed(-1) || f.Failed(3) || f.Skew(-1) != 0 || f.Skew(3) != 0 {
		t.Error("out-of-range queries must read as healthy")
	}
}

func TestFaultsMaskMatchesGain(t *testing.T) {
	const n, m = 6, 4
	h := randomMatrix(2, n, m)
	f := NewFaults(n, m)
	f.FailTX(1)
	f.FailTX(4)
	f.RecoverTX(4)
	f.FailTX(5)
	f.SetRXAttenuation(0, 0.1)
	f.SetRXAttenuation(3, 0)
	masked := h.Clone()
	f.Mask(masked)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			want := f.Gain(h, j, i)
			if math.Float64bits(masked.H[j][i]) != math.Float64bits(want) {
				t.Errorf("H[%d][%d]: Mask %g, Gain %g", j, i, masked.H[j][i], want)
			}
		}
	}
	if masked.H[1][2] != 0 || masked.H[5][0] != 0 || masked.H[4][2] != h.H[4][2] {
		t.Error("dark TXs must read zero and a recovered TX its clear gain")
	}
}

func TestFaultsFailedTXsInIndexOrder(t *testing.T) {
	f := NewFaults(8, 1)
	if got := f.FailedTXs(); got != nil {
		t.Errorf("healthy deployment lists %v", got)
	}
	for _, tx := range []int{5, 1, 7, 3} {
		f.FailTX(tx)
	}
	f.RecoverTX(7)
	if got, want := f.FailedTXs(), []int{1, 3, 5}; !reflect.DeepEqual(got, want) {
		t.Errorf("FailedTXs = %v, want %v", got, want)
	}
	if !f.Failed(3) || f.Failed(7) {
		t.Error("Failed disagrees with FailedTXs")
	}
}

func TestFaultsSkewAccumulates(t *testing.T) {
	f := NewFaults(2, 1)
	in := NewInjector(NewSchedule().ClockStep(0, 1, 2e-6).ClockStep(1, 1, 3e-6))
	in.Apply(0, 0, f)
	in.Apply(1, 1, f)
	if got := f.Skew(1); math.Abs(got.S()-5e-6) > 1e-18 || f.Skew(0) != 0 {
		t.Errorf("skews %v, %v; want 0, 5µs", f.Skew(0), got)
	}
}
