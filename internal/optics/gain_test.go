package optics

import (
	"math"
	"math/rand"
	"testing"

	"densevlc/internal/geom"
	"densevlc/internal/units"
)

// gatedGain is Gain as it was before the FOV gate was skipped at Ψc ≥ 90°:
// the Acos comparison runs on every pair that survives the hemisphere
// tests.
func gatedGain(e Emitter, d Detector) float64 {
	sep := d.Pos.Sub(e.Pos)
	dist2 := sep.Norm2()
	if dist2 == 0 {
		return 0
	}
	dir := sep.Unit()
	cosPhi := e.Normal.Dot(dir)
	if cosPhi <= 0 {
		return 0
	}
	cosPsi := d.Normal.Dot(dir.Scale(-1))
	if cosPsi <= 0 {
		return 0
	}
	if math.Acos(clamp1(cosPsi)) > d.FOV.Rad() {
		return 0
	}
	m := e.Order
	return (m + 1) * d.Area.M2() / (2 * math.Pi * dist2) *
		math.Pow(cosPhi, m) * d.OpticsGain * cosPsi
}

// randUnit returns a uniformly distributed unit vector.
func randUnit(rng *rand.Rand) geom.Vec {
	for {
		v := geom.V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
		if n := v.Norm(); n > 1e-3 {
			return v.Scale(1 / n)
		}
	}
}

// TestGainMatchesGatedReference bit-compares Gain with the always-gated
// reference on random tilted poses, grazing incidence with subnormal
// cosPsi and coincident points, at fields of view on both sides of 90°.
func TestGainMatchesGatedReference(t *testing.T) {
	fovs := []units.Radians{
		math.Pi, 100 * math.Pi / 180, math.Pi / 2,
		89.9 * math.Pi / 180, 60 * math.Pi / 180, 5 * math.Pi / 180,
	}
	check := func(name string, e Emitter, d Detector) {
		t.Helper()
		got, want := Gain(e, d), gatedGain(e, d)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: FOV %v rad, e %+v, d %+v: Gain %v (%#x), gated %v (%#x)",
				name, d.FOV, e, d, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}

	rng := rand.New(rand.NewSource(21))
	gated, passed := 0, 0
	for trial := 0; trial < 20000; trial++ {
		e := Emitter{
			Pos:    geom.V(rng.Float64()*4, rng.Float64()*4, rng.Float64()*3),
			Normal: randUnit(rng),
			Order:  0.5 + rng.Float64()*30,
		}
		if trial%2 == 0 {
			e.Normal = geom.V(0, 0, -1) // the ceiling's downward pose
		}
		d := Detector{
			Pos:        geom.V(rng.Float64()*4, rng.Float64()*4, rng.Float64()*3),
			Normal:     randUnit(rng),
			Area:       units.SquareMeters(1e-6 + rng.Float64()*1e-5),
			OpticsGain: 0.5 + rng.Float64(),
		}
		wide := d
		wide.FOV = math.Pi
		inView := gatedGain(e, wide) != 0
		for _, fov := range fovs {
			d.FOV = fov
			check("random pose", e, d)
			if fov < math.Pi/2 && inView {
				if gatedGain(e, d) == 0 {
					gated++
				} else {
					passed++
				}
			}
		}
	}
	if gated == 0 || passed == 0 {
		t.Fatalf("narrow FOVs never exercised both gate outcomes: %d gated, %d passed", gated, passed)
	}

	// Grazing incidence: the detector sees the emitter from almost in its
	// own plane, so cosPsi is tiny, down to subnormal.
	for _, z := range []float64{1e-17, 1e-300, 1e-310, 5e-324} {
		e := Emitter{Pos: geom.V(1, 0, z), Normal: geom.V(-1, 0, 0), Order: 1}
		d := Detector{Pos: geom.V(0, 0, 0), Normal: geom.V(0, 0, 1), Area: 1e-6, OpticsGain: 1}
		for _, fov := range fovs {
			d.FOV = fov
			check("grazing", e, d)
		}
	}

	// Coincident points.
	for _, fov := range fovs {
		check("coincident", paperEmitter(geom.V(1, 1, 1)), Detector{Pos: geom.V(1, 1, 1), Normal: geom.V(0, 0, 1), Area: apd, FOV: fov, OpticsGain: 1})
	}
}

// TestAcosNeverExceedsHalfPi is the premise of the skipped gate: for every
// positive cosine, subnormals included, Acos is at most float64(π/2), so
// a field of view of at least π/2 cannot reject the ray.
func TestAcosNeverExceedsHalfPi(t *testing.T) {
	cs := []float64{math.SmallestNonzeroFloat64, 1e-310, 0x1p-1022, 1e-300, 1e-17, 0x1p-53, 1e-9, 0.5, 0.7, math.Nextafter(1, 0), 1}
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 100000; i++ {
		cs = append(cs, rng.Float64(), math.Ldexp(rng.Float64(), -rng.Intn(1074)))
	}
	for _, c := range cs {
		if c > 0 && math.Acos(c) > math.Pi/2 {
			t.Fatalf("Acos(%g) = %v > π/2", c, math.Acos(c))
		}
	}
}
