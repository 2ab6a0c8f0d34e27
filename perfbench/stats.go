package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile:
// a tail percentile resting on fewer samples is noise, not a measurement.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of samples by nearest
// rank, or an error when fewer than minBeyond samples lie above it.
func percentile(samples []float64, q float64) (float64, error) {
	n := len(samples)
	rank := int(math.Ceil(q * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	if n == 0 || n-rank < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d", q*100, minBeyond, n-rank, n)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// quartiles returns the first quartile, median and third quartile of
// values the way Python's statistics.quantiles(values, n=4) computes them
// (the default "exclusive" method), so spreads printed here match the
// ones an outside check computes from the same runs.
func quartiles(values []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	ld := len(d)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	m := ld + 1
	var r [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		r[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return r[0], r[1], r[2]
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func maxOf(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		m = max(m, x)
	}
	return m
}

// arrival is one scheduled request of an open-loop generator: when it is
// due (offset from the start of the phase) and which class it belongs to.
type arrival struct {
	due   time.Duration
	class int
}

// poissonSchedule returns the seeded Poisson arrival schedule of one
// class over [0, span): a Poisson process at rate per second conditioned
// on its expected count, that is, round(rate × span) arrivals placed
// uniformly at random and sorted. Fixing the count keeps every seed's
// load identical while the arrival pattern, gaps included, stays Poisson.
// The same seed always yields the same schedule.
func poissonSchedule(seed int64, rate float64, span time.Duration, class int) []arrival {
	rng := rand.New(rand.NewSource(seed))
	out := make([]arrival, int(math.Round(rate*span.Seconds())))
	for i := range out {
		out[i] = arrival{due: time.Duration(rng.Int63n(int64(span))), class: class}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].due < out[j].due })
	return out
}

// mergeSchedules interleaves per-class schedules into one in due order
// (ties keep the class order of the arguments).
func mergeSchedules(parts ...[]arrival) []arrival {
	var out []arrival
	for _, p := range parts {
		out = append(out, p...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].due < out[j].due })
	return out
}

// splitmix64 is one step of the SplitMix64 mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// poolSeed maps (stream, index) to a solver seed in [1, 1e9], small
// enough to stay readable in request bodies.
func poolSeed(stream, index uint64) int64 {
	return int64(splitmix64(stream<<32^index)%1_000_000_000) + 1
}
