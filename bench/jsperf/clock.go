package main

import (
	"math"
	"time"
)

// The host's CPU clock moves between discrete levels (here 3.3 to
// 4.2 GHz, for fractions of a second up to tens of seconds) with the
// load of the machine's other tenants, and every timing moves with it.
// To measure the program and not the host, the clock is read before,
// during and after each timed interval, and the interval is scaled to a
// fixed reference clock.
//
// A reading times a dependent chain of register-only operations, which
// takes a fixed number of cycles whatever the caches, the memory or the
// sibling hyperthread do.
const (
	chainSteps = 20_000
	// refStepNs is the reference clock: 0.6 chain steps per nanosecond,
	// which is 3.6 GHz at this chain's 6 cycles per step and the middle
	// of the levels seen, so that scaling moves no timing far.
	refStepNs = 1 / 0.6
	// samplePeriod is how often the clock is read inside an interval.
	// A reading takes 0.1 ms, so sampling costs the interval 1% of one
	// CPU, the same on every commit.
	samplePeriod = 10 * time.Millisecond
)

var chainSink uint64

// readClock returns the nanoseconds one chain step takes now: the best
// of three chains, because an interrupt can only lengthen one.
func readClock() float64 {
	bestNs := math.Inf(1)
	for k := 0; k < 3; k++ {
		t0 := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < chainSteps; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		chainSink += x
		bestNs = math.Min(bestNs, float64(time.Since(t0).Nanoseconds()))
	}
	return bestNs / chainSteps
}

// A timing is one measured interval and the clock it ran at.
type timing struct {
	wall, cpu time.Duration // as measured
	stepNs    float64       // median clock reading over the interval
}

// timed runs f and reads the clock before it, every samplePeriod while
// it runs, and after it.
func timed(f func()) timing {
	readings := []float64{readClock()}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(samplePeriod)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				readings = append(readings, readClock())
			}
		}
	}()
	t0 := time.Now()
	f()
	wall := time.Since(t0)
	close(stop)
	<-done
	readings = append(readings, readClock())
	return timing{wall: wall, stepNs: median(readings)}
}

// scale is the factor that turns a measured duration of this interval
// into its duration at the reference clock.
func (t timing) scale() float64 { return refStepNs / t.stepNs }

// refSeconds and refCPU are the interval's wall and CPU time at the
// reference clock.
func (t timing) refSeconds() float64 { return t.wall.Seconds() * t.scale() }
func (t timing) refCPU() float64     { return t.cpu.Seconds() * t.scale() }

// floor estimates the undisturbed value of a quantity measured once per
// timing (pick selects it, already scaled to the reference clock).
// Interference from other tenants only ever adds time, so the estimate
// comes from the low end: it is the mean of the values at or below the
// first quartile. The plain minimum is not used, because an interval
// whose clock readings missed a short faster spell scales too small.
func floor(ts []timing, pick func(timing) float64) float64 {
	if len(ts) == 0 {
		return 0
	}
	vals := make([]float64, len(ts))
	for i, t := range ts {
		vals[i] = pick(t)
	}
	asc := sorted(vals)
	n := (len(asc) + 3) / 4
	sum := 0.0
	for _, v := range asc[:n] {
		sum += v
	}
	return sum / float64(n)
}
