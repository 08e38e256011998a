package chaos

import (
	"densevlc/internal/channel"
	"densevlc/internal/units"
)

// Faults is the physical layer's fault state, the Target both engines hand
// to their Injector: which transmitters are dark, the fraction of each
// receiver's LOS gain a blockage leaves, and each transmitter's accumulated
// trigger-clock skew. Out-of-range indices are ignored. Faults does no
// locking: sim.Run is single-goroutine and node.Hub guards its copy with
// its own mutex.
type Faults struct {
	failed []bool
	keep   []float64
	skew   []units.Seconds
}

// NewFaults returns the fault-free state of n transmitters and m receivers.
func NewFaults(n, m int) *Faults {
	f := &Faults{
		failed: make([]bool, n),
		keep:   make([]float64, m),
		skew:   make([]units.Seconds, n),
	}
	for i := range f.keep {
		f.keep[i] = 1
	}
	return f
}

// FailTX implements Target.
func (f *Faults) FailTX(tx int) {
	if tx >= 0 && tx < len(f.failed) {
		f.failed[tx] = true
	}
}

// RecoverTX implements Target.
func (f *Faults) RecoverTX(tx int) {
	if tx >= 0 && tx < len(f.failed) {
		f.failed[tx] = false
	}
}

// SetRXAttenuation implements Target; keep is clamped to [0, 1].
func (f *Faults) SetRXAttenuation(rx int, keep float64) {
	if rx < 0 || rx >= len(f.keep) {
		return
	}
	f.keep[rx] = min(1, max(0, keep))
}

// SkewClock implements Target.
func (f *Faults) SkewClock(tx int, delta units.Seconds) {
	if tx >= 0 && tx < len(f.skew) {
		f.skew[tx] += delta
	}
}

// Failed reports whether transmitter tx is dark.
func (f *Faults) Failed(tx int) bool { return tx >= 0 && tx < len(f.failed) && f.failed[tx] }

// Skew returns transmitter tx's accumulated trigger-clock step (zero out of
// range).
func (f *Faults) Skew(tx int) units.Seconds {
	if tx < 0 || tx >= len(f.skew) {
		return 0
	}
	return f.skew[tx]
}

// Gain returns h's gain from tx to rx as the faulted medium delivers it:
// zero from a dark transmitter, scaled by the receiver's retained fraction
// otherwise.
func (f *Faults) Gain(h *channel.Matrix, tx, rx int) float64 {
	if f.failed[tx] {
		return 0
	}
	return h.Gain(tx, rx) * f.keep[rx]
}

// Mask applies the faults to h in place, entry for entry what Gain returns:
// dark transmitters radiate nothing, shadowed receivers see attenuated
// gains.
//
//lint:hotpath
func (f *Faults) Mask(h *channel.Matrix) {
	for j := 0; j < h.N; j++ {
		for i := 0; i < h.M; i++ {
			if f.failed[j] {
				h.H[j][i] = 0
				continue
			}
			h.H[j][i] *= f.keep[i]
		}
	}
}

// FailedTXs lists the dark transmitters in index order (nil when none).
func (f *Faults) FailedTXs() []int {
	var out []int
	for j, dark := range f.failed {
		if dark {
			out = append(out, j)
		}
	}
	return out
}
