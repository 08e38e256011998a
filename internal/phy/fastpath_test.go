package phy

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"densevlc/internal/dsp"
	"densevlc/internal/frame"
	"densevlc/internal/stats"
	"densevlc/internal/units"
)

// referenceTransmit is the per-sample superposition loop that Transmit's
// transmitter-outer loop must reproduce bit for bit: for each sample, sum
// every transmitter's chip in order, then draw that sample's noise.
func referenceTransmit(l *Link, mac frame.MAC, txs []TXSignal) ([]float64, int, error) {
	chips, rawLen, err := airChips(mac)
	if err != nil {
		return nil, 0, err
	}
	lead := 24 * l.chipDur
	maxOff := 0.0
	for _, tx := range txs {
		if !tx.Continuous && tx.Offset.S() > maxOff {
			maxOff = tx.Offset.S()
		}
	}
	dur := lead + float64(len(chips))*l.chipDur + maxOff + 8*l.chipDur
	n := int(dur * l.cfg.SampleRate.Hz())

	phase := l.rng.Float64() / l.cfg.SampleRate.Hz()
	samples := make([]float64, n)
	for k := range samples {
		t := phase + float64(k)/l.cfg.SampleRate.Hz()
		v := 0.0
		for _, tx := range txs {
			ct := t - lead - tx.Offset.S()
			chipDur := l.chipDur * (1 + tx.ClockPPM*1e-6)
			if tx.Continuous {
				idx := int(math.Floor(ct/chipDur)) % len(chips)
				if idx < 0 {
					idx += len(chips)
				}
				v += tx.Amplitude.A() * chips[idx]
				continue
			}
			if ct < 0 {
				continue
			}
			idx := int(ct / chipDur)
			if idx < len(chips) {
				v += tx.Amplitude.A() * chips[idx]
			}
		}
		if l.cfg.NoiseStd > 0 {
			v += l.cfg.NoiseStd.A() * l.rng.NormFloat64()
		}
		samples[k] = v
	}

	if l.cfg.FrontEnd {
		ac := dsp.NewACCoupler(1e3, l.cfg.SampleRate.Hz())
		lp, err := dsp.ButterworthLowpass(7, 0.4*l.cfg.SampleRate.Hz(), l.cfg.SampleRate.Hz())
		if err != nil {
			return nil, 0, err
		}
		for i, s := range samples {
			samples[i] = lp.Process(ac.Process(s))
		}
	}
	if l.cfg.ADCBits > 0 {
		fs := 4 * aggregateAmplitude(txs)
		if fs <= 0 {
			fs = 4 * l.cfg.NoiseStd.A()
		}
		adc := dsp.ADC{Bits: l.cfg.ADCBits, FullScale: fs}
		for i, s := range samples {
			samples[i] = adc.Quantize(s)
		}
	}
	return samples, rawLen, nil
}

// roomTXs is a room-scale superposition: members frame-aligned with
// sub-chip NLOS offsets, plus continuous interferers whose free-running
// offsets may be negative, every board with its own crystal error.
func roomTXs(rng *rand.Rand, members, interferers int) []TXSignal {
	var txs []TXSignal
	for i := 0; i < members; i++ {
		off := 0.0
		if i > 0 {
			off = 1.2e-6 * rng.Float64()
		}
		txs = append(txs, TXSignal{
			Amplitude: units.Amperes(strongAmplitude * (0.2 + rng.Float64())),
			Offset:    units.Seconds(off),
			ClockPPM:  40*rng.Float64() - 20,
		})
	}
	for i := 0; i < interferers; i++ {
		txs = append(txs, TXSignal{
			Amplitude:  units.Amperes(strongAmplitude * 0.1 * rng.Float64()),
			Offset:     units.Seconds(20e-3*rng.Float64() - 10e-3),
			Continuous: true,
			ClockPPM:   40*rng.Float64() - 20,
		})
	}
	return txs
}

func TestTransmitBitExact(t *testing.T) {
	rng := stats.NewRand(17)
	txSets := map[string][]TXSignal{
		"none":           nil,
		"single aligned": {{Amplitude: strongAmplitude}},
		"zero amplitude": {{Amplitude: 0, Offset: 3e-6}},
		"late member":    {{Amplitude: strongAmplitude, Offset: 40e-6, ClockPPM: 20}},
		"negative continuous": {
			{Amplitude: strongAmplitude / 2, ClockPPM: 10},
			{Amplitude: strongAmplitude / 2, Offset: -7.3e-3, Continuous: true, ClockPPM: -15},
			{Amplitude: strongAmplitude / 3, Offset: -2.5e-6, Continuous: true},
		},
		"room 2+6":        roomTXs(rng, 2, 6),
		"room 4+12":       roomTXs(rng, 4, 12),
		"continuous only": roomTXs(rng, 0, 3),
	}
	payloads := [][]byte{{}, []byte("bit-exact"), make([]byte, 64)}
	noise := units.Amperes(math.Sqrt(7.02e-23 * 1e6))

	for _, noiseStd := range []units.Amperes{0, noise} {
		for _, frontEnd := range []bool{false, true} {
			for _, adcBits := range []int{0, 12} {
				cfg := Config{SymbolRate: 100e3, SampleRate: 1e6, NoiseStd: noiseStd, FrontEnd: frontEnd, ADCBits: adcBits}
				for name, txs := range txSets {
					for pi, payload := range payloads {
						label := fmt.Sprintf("noise=%v frontend=%v adc=%d %s payload=%d", noiseStd > 0, frontEnd, adcBits, name, pi)
						mac := frame.MAC{Dst: 1, Src: 2, Protocol: 0x0800, Payload: payload}
						seed := int64(1000*pi + len(txs))
						fast, err := NewLink(cfg, stats.NewRand(seed))
						if err != nil {
							t.Fatal(err)
						}
						ref, err := NewLink(cfg, stats.NewRand(seed))
						if err != nil {
							t.Fatal(err)
						}
						// Two frames through the same link: the second starts
						// from whatever RNG state the first left behind.
						for f := 0; f < 2; f++ {
							got, gotLen, gotErr := fast.Transmit(mac, txs)
							want, wantLen, wantErr := referenceTransmit(ref, mac, txs)
							if (gotErr == nil) != (wantErr == nil) || gotLen != wantLen || len(got) != len(want) {
								t.Fatalf("%s frame %d: len %d/%d rawLen %d/%d err %v/%v",
									label, f, len(got), len(want), gotLen, wantLen, gotErr, wantErr)
							}
							for k := range got {
								if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
									t.Fatalf("%s frame %d: sample %d = %v, reference %v", label, f, k, got[k], want[k])
								}
							}
						}
						if a, b := fast.rng.Int63(), ref.rng.Int63(); a != b {
							t.Fatalf("%s: RNG streams diverged", label)
						}
					}
				}
			}
		}
	}
}

// BenchmarkTransmit times one room-wave superposition: two NLOS-synchronised
// beamspot members and six free-running interferers, with receiver noise.
func BenchmarkTransmit(b *testing.B) {
	l, err := NewLink(Config{
		SymbolRate: 100e3,
		SampleRate: 1e6,
		NoiseStd:   units.Amperes(math.Sqrt(7.02e-23 * 1e6)),
	}, stats.NewRand(1))
	if err != nil {
		b.Fatal(err)
	}
	mac := frame.MAC{Dst: 1, Src: 2, Protocol: 0x0800, Payload: make([]byte, 64)}
	txs := roomTXs(stats.NewRand(2), 2, 6)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := l.Transmit(mac, txs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReceive times the receiver on a capture of two beamspot members
// and six free-running interferers, with receiver noise, so the preamble
// search meets a realistic mix of lags it can drop and lags it must finish.
// The TX set is one whose frame decodes.
func BenchmarkReceive(b *testing.B) {
	l, err := NewLink(Config{
		SymbolRate: 100e3,
		SampleRate: 1e6,
		NoiseStd:   units.Amperes(math.Sqrt(7.02e-23 * 1e6)),
	}, stats.NewRand(1))
	if err != nil {
		b.Fatal(err)
	}
	mac := frame.MAC{Dst: 1, Src: 2, Protocol: 0x0800, Payload: make([]byte, 64)}
	samples, rawLen, err := l.Transmit(mac, roomTXs(stats.NewRand(1), 2, 6))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := l.Receive(samples, rawLen); err != nil {
			b.Fatal(err)
		}
	}
}
