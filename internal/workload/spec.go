// Package workload is DenseVLC's service-grade population engine: it grows
// the paper's handful of fixed receivers into a churning user population —
// Poisson arrivals, exponentially distributed dwell times, fleets of
// waypoint-mobile users, per-user bursty/diurnal traffic — and tracks the
// beamspot handovers the controller performs as users cross the floor.
//
// The engine is built around a fixed fleet of receiver slots. The paper's
// pilot/report/allocate round structure addresses receivers by index, so a
// "user" here is a tenancy of a slot: an arrival occupies the lowest free
// slot with a fresh trajectory, traffic state and dwell time; a departure
// frees the slot again. A free slot's photodiode is dark — its channel
// column is masked to zero — and the allocator therefore never grants it
// swing (the SJR ranking drops zero-gain receivers, and cluster formation
// gives them empty serving sets), which is the departure invariant the
// conformance suite pins.
//
// Everything the engine does is deterministic for a given seed: arrivals,
// dwell draws, per-user motion and traffic all derive from streams split off
// one root RNG, in a fixed evaluation order, and the event Trace renders to
// canonical bytes so two runs can be compared exactly (a long run keeps only
// its recent events, behind a digest of the evicted ones).
package workload

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"densevlc/internal/units"
)

// Spec parameterises a churn workload. The zero value is invalid; start
// from DefaultSpec.
type Spec struct {
	// ArrivalRate is the Poisson arrival intensity in users per second.
	ArrivalRate float64
	// MeanDwell is the mean of the exponential session length.
	MeanDwell units.Seconds
	// Fleet is the number of receiver slots (the maximum concurrent
	// population; sets M everywhere downstream).
	Fleet int
	// Speed is the random-waypoint speed of every user.
	Speed units.MetersPerSecond
	// POn is the per-epoch probability that an idle user starts a burst;
	// POff the probability that a bursting user goes idle (a two-state
	// Markov traffic source).
	POn, POff float64
	// PeakFrames is the frames per epoch a bursting user demands at the
	// diurnal peak.
	PeakFrames int
	// DiurnalPeriod, when positive, modulates burst demand with a sinusoidal
	// day/night envelope of this period. Zero keeps demand flat.
	DiurnalPeriod units.Seconds
	// MinWattsPerUser is the admission controller's capacity gate: an
	// arrival is rejected when admitting it would leave the population less
	// than this share of the communication power budget each. Zero disables
	// the gate (slots remain the only limit).
	MinWattsPerUser units.Watts
}

// DefaultSpec is the reference workload: a fleet of 8 slots at the paper's
// gantry speed, moderate churn, bursty flat-rate traffic, no capacity gate.
func DefaultSpec() Spec {
	return Spec{
		ArrivalRate: 0.5,
		MeanDwell:   20,
		Fleet:       8,
		Speed:       0.25,
		POn:         0.35,
		POff:        0.25,
		PeakFrames:  8,
	}
}

// Validate reports whether the spec is usable. Non-finite fields are
// rejected explicitly since NaN compares false against every bound.
func (sp Spec) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"rate", sp.ArrivalRate},
		{"dwell", sp.MeanDwell.S()},
		{"speed", sp.Speed.MPerS()},
		{"on", sp.POn},
		{"off", sp.POff},
		{"diurnal", sp.DiurnalPeriod.S()},
		{"minwatts", sp.MinWattsPerUser.W()},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("workload: %s must be finite", f.name)
		}
		if f.v < 0 {
			return fmt.Errorf("workload: %s %g must not be negative", f.name, f.v)
		}
	}
	if sp.Fleet < 1 {
		return fmt.Errorf("workload: fleet %d must be at least 1", sp.Fleet)
	}
	if sp.MeanDwell <= 0 {
		return errors.New("workload: dwell must be positive")
	}
	if sp.POn > 1 || sp.POff > 1 {
		return fmt.Errorf("workload: on %g / off %g must be probabilities in [0, 1]", sp.POn, sp.POff)
	}
	if sp.PeakFrames < 0 {
		return fmt.Errorf("workload: frames %d must not be negative", sp.PeakFrames)
	}
	return nil
}

// String renders the spec in the grammar Parse accepts — semicolon-joined
// key:value pairs in canonical order. The output is normalised:
// Parse(sp.String()) returns sp exactly, and String is a fixed point on
// parsed specs.
func (sp Spec) String() string {
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	return fmt.Sprintf("rate:%s;dwell:%s;fleet:%d;speed:%s;on:%s;off:%s;frames:%d;diurnal:%s;minwatts:%s",
		g(sp.ArrivalRate), g(sp.MeanDwell.S()), sp.Fleet, g(sp.Speed.MPerS()),
		g(sp.POn), g(sp.POff), sp.PeakFrames, g(sp.DiurnalPeriod.S()), g(sp.MinWattsPerUser.W()))
}

// Parse builds a Spec from its textual form: semicolon-separated key:value
// pairs ("rate:1;fleet:16;dwell:30"), starting from DefaultSpec so any
// subset of keys may be given. Whitespace around keys and values is
// ignored; empty pairs are skipped. The result is validated.
func Parse(s string) (Spec, error) {
	sp := DefaultSpec()
	for _, pair := range strings.Split(s, ";") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		key, val, ok := strings.Cut(pair, ":")
		if !ok {
			return Spec{}, fmt.Errorf("workload: %q is not a key:value pair", pair)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		switch key {
		case "fleet", "frames":
			n, err := strconv.Atoi(val)
			if err != nil {
				return Spec{}, fmt.Errorf("workload: %s: %v", key, err)
			}
			if key == "fleet" {
				sp.Fleet = n
			} else {
				sp.PeakFrames = n
			}
		case "rate", "dwell", "speed", "on", "off", "diurnal", "minwatts":
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return Spec{}, fmt.Errorf("workload: %s: %v", key, err)
			}
			switch key {
			case "rate":
				sp.ArrivalRate = v
			case "dwell":
				sp.MeanDwell = units.Seconds(v)
			case "speed":
				sp.Speed = units.MetersPerSecond(v)
			case "on":
				sp.POn = v
			case "off":
				sp.POff = v
			case "diurnal":
				sp.DiurnalPeriod = units.Seconds(v)
			case "minwatts":
				sp.MinWattsPerUser = units.Watts(v)
			}
		default:
			return Spec{}, fmt.Errorf("workload: unknown key %q", key)
		}
	}
	if err := sp.Validate(); err != nil {
		return Spec{}, err
	}
	return sp, nil
}
