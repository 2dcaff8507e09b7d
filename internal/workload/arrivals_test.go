package workload

import (
	"math"
	"math/rand"
	"runtime/debug"
	"slices"
	"testing"
)

// modHourlyArrivals is PoissonArrivalsHourly as it was written with
// math.Mod on every thinning candidate: the oracle its day clock must
// reproduce.
func modHourlyArrivals(rng *rand.Rand, rate, duration float64, hourly []float64) []float64 {
	var sum, peak float64
	for _, w := range hourly {
		sum += w
		peak = math.Max(peak, w)
	}
	maxRate := rate * peak / (sum / 24)
	var times []float64
	t := rng.ExpFloat64() / maxRate
	for t < duration {
		hour := int(math.Mod(t, 86400) / 3600)
		if rng.Float64() < hourly[hour]/peak {
			times = append(times, t)
		}
		t += rng.ExpFloat64() / maxRate
	}
	return times
}

func TestHourlyArrivalsMatchModOracle(t *testing.T) {
	spiky := make([]float64, 24)
	spiky[3], spiky[17], spiky[23] = 1, 5, 0.5
	profiles := map[string][]float64{"default": DefaultDiurnal(), "spiky": spiky}
	cases := []struct{ rate, duration float64 }{
		{0.1, 4 * 86400},          // whole days
		{0.2, 3.5*86400 + 1234.5}, // a part-day tail
		{1, 0.3 * 86400},          // under one day
		{0.5, 86400},              // exactly one day
		{0.3, 2*86400 + 3600},     // ends on an hour boundary
		{0.0002, 40 * 86400},      // gaps of several days
		{0.05, 12*86400 - 1e-7},   // just short of a day boundary
		{2, 5*3600 + 0.000001},    // dense, one part-day
	}
	for name, hourly := range profiles {
		for _, c := range cases {
			for seed := int64(1); seed <= 3; seed++ {
				got := PoissonArrivalsHourly(rand.New(rand.NewSource(seed)), c.rate, c.duration, hourly)
				want := modHourlyArrivals(rand.New(rand.NewSource(seed)), c.rate, c.duration, hourly)
				if len(got) != len(want) {
					t.Fatalf("%s rate %v over %v s, seed %d: %d arrivals, math.Mod oracle %d",
						name, c.rate, c.duration, seed, len(got), len(want))
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s rate %v over %v s, seed %d: arrival %d at %v, oracle %v",
							name, c.rate, c.duration, seed, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestDayClockAtBoundaries probes the instants where t−day and
// math.Mod could part: one ulp either side of every day start and of
// every hour within the day, far into the horizon.
func TestDayClockAtBoundaries(t *testing.T) {
	var probes []float64
	for _, k := range []float64{0, 1, 2, 7, 30, 365, 1000, 1e6} {
		for h := 0.0; h <= 24; h++ {
			at := k*86400 + h*3600
			probes = append(probes, math.Nextafter(at, 0), at, math.Nextafter(at, math.Inf(1)))
		}
	}
	slices.Sort(probes)
	var seq dayClock
	for _, p := range probes {
		want := int(math.Mod(p, 86400) / 3600)
		// A fresh clock walks from day 0, so it is asked only up to
		// day 1001; the shared one walks the probes in order.
		if p < 1002*86400 {
			var fresh dayClock
			if got := fresh.hour(p); got != want {
				t.Errorf("t = %v (%#x): hour %d from day 0, math.Mod gives %d", p, math.Float64bits(p), got, want)
			}
		}
		if got := seq.hour(p); got != want {
			t.Errorf("t = %v (%#x): hour %d after earlier probes, math.Mod gives %d", p, math.Float64bits(p), got, want)
		}
	}
}

// TestHourlyArrivalsAllocateOnce requires the arrival slice to be
// sized from the profile's expected count, so it never regrows. The
// collector is off while counting: a cycle's own allocations would
// count as the call's.
func TestHourlyArrivalsAllocateOnce(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	rng, hourly := rand.New(rand.NewSource(1)), DefaultDiurnal()
	for _, c := range []struct{ rate, days float64 }{{2, 0.4}, {2, 1}, {0.5, 4.6}} {
		// Half the seeds draw more arrivals than the mean.
		for seed := int64(1); seed <= 6; seed++ {
			allocs := testing.AllocsPerRun(1, func() {
				rng.Seed(seed)
				PoissonArrivalsHourly(rng, c.rate, c.days*86400, hourly)
			})
			if allocs != 1 {
				t.Errorf("rate %v over %v days, seed %d: arrivals allocate %v objects, want 1",
					c.rate, c.days, seed, allocs)
			}
		}
	}
}
