package main

import (
	"sort"
	"time"
)

// Host calibration.  Raw wall clock on a shared host swings by tens of
// percent within a minute, so every host-time figure is divided by a
// fixed calibration kernel timed right beside it: the kernel runs at
// each pause between measured segments, and a segment's wall time is
// scaled by refCalibration over the mean of the calibration times on
// either side of it.  The result reads as time on the reference host.

// refCalibration is the calibration kernel's median duration on the
// reference host (see README.md, "Host calibration").
const refCalibration = 70 * time.Millisecond

// Kernel size: calReps repetitions of calPasses sweeps of an
// L1-resident float array followed by calRounds goroutine channel
// round trips.  Interference on a shared host comes in bursts of a few
// milliseconds, so the kernel is repeated to sample a pause's worth of
// them rather than one.
const (
	calLen    = 1024 // float64s per array: 2 x 8 KiB, resident in L1
	calPasses = 4000
	calRounds = 6000
	calReps   = 8
)

// calSink keeps the float sweep's result live.
var calSink float64

// calibrate runs the calibration kernel and returns its wall time.
func calibrate() time.Duration {
	t0 := time.Now()
	for r := 0; r < calReps; r++ {
		calSink += floatSweep()
		pingPong()
	}
	return time.Since(t0)
}

// floatSweep is the arithmetic half of the kernel: a dependent
// multiply-add sweep over two arrays that stay in the L1 cache.
func floatSweep() float64 {
	var a, b [calLen]float64
	for i := range a {
		a[i] = float64(i) * 1e-3
		b[i] = 1 - float64(i)*1e-4
	}
	for p := 0; p < calPasses; p++ {
		for i := range a {
			a[i] = a[i]*0.999 + b[i]*1e-3
		}
	}
	s := 0.0
	for _, v := range a {
		s += v
	}
	return s
}

// pingPong is the scheduling half of the kernel: unbuffered channel
// round trips with a second goroutine, the handoff the simulator's
// process baton performs on every cross-process wake.  The goroutine
// ends when ping is closed, and pingPong waits for it.
func pingPong() {
	ping, pong := make(chan int), make(chan int)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for v := range ping {
			pong <- v + 1
		}
	}()
	for i := 0; i < calRounds; i++ {
		ping <- i
		<-pong
	}
	close(ping)
	<-done
}

// scaled converts a raw duration measured between two calibrations
// into seconds on the reference host.
func scaled(raw, calBefore, calAfter time.Duration) float64 {
	mean := (calBefore.Seconds() + calAfter.Seconds()) / 2
	return raw.Seconds() * refCalibration.Seconds() / mean
}

// trimmedMean is the mean of xs without its slowest tenth: a segment
// hit by a descheduling spike says nothing about the program.
func trimmedMean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	s = s[:len(s)-len(s)/10]
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first, second and third quartiles of xs by the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), so the
// steadiness report matches the acceptance arithmetic exactly.  It
// needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		v := 0.0
		if ld == 1 {
			v = s[0]
		}
		return v, v, v
	}
	const n = 4
	m := ld + 1
	var q [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}
