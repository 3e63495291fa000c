package sim

import (
	"testing"
	"testing/quick"
)

// Property: the time-weighted mean always lies within [min, max] of the
// observed values.
func TestTimeWeightedBoundsProperty(t *testing.T) {
	f := func(steps []uint8) bool {
		var w TimeWeighted
		w.Reset(0, 0)
		lo, hi := 0.0, 0.0
		tNow := 0.0
		for _, s := range steps {
			tNow++
			v := float64(s % 16)
			w.Set(tNow, v)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		m := w.Mean(tNow + 1)
		return m >= lo-1e-9 && m <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: damped averages are bounded by the extrema of their inputs.
func TestDampedBoundsProperty(t *testing.T) {
	f := func(obs []uint8) bool {
		d := NewDamped(60, 0)
		lo, hi := 0.0, 0.0
		tNow := 0.0
		for _, o := range obs {
			tNow += 5
			v := float64(o % 32)
			d.Observe(tNow, v)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		got := d.Value(tNow + 1)
		return got >= lo-1e-9 && got <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGJitterRange(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 1000; i++ {
		v := r.Jitter(10, 0.25)
		if v < 7.5 || v > 12.5 {
			t.Fatalf("Jitter(10, 0.25) = %v out of range", v)
		}
	}
}

func TestRNGIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}
