package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Host-time measurement. Wall-clock seconds are not gated: on a shared
// 2-vCPU VM the hypervisor steals up to half the CPU, and the same
// code read 1.83 vs 1.99 s (million-disk) and 0.66 vs 0.72 s (NERSC)
// across two sets of runs. Process CPU seconds exclude steal, and
// settle() starts every op from the heap state of a fresh process.

// cpuSeconds is the process's user + system CPU time, all threads
// (the Go runtime's GC workers included).
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// pageFaults is the process's minor + major page-fault count.
func pageFaults() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return ru.Minflt + ru.Majflt
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// settle returns the heap to the state a fresh process starts from:
// without FreeOSMemory the scavenger decides how much memory the next
// op must fault back in, which moved the million-disk op's page faults
// between 0.2k and 93k and its median CPU time by 20% run to run.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// stealSeconds reads the machine-wide hypervisor steal time from
// /proc/stat (all CPUs, USER_HZ ticks). It is 0 where the file or the
// field is missing.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := strings.Fields(string(line))
	// cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100
}

// peakRSSBytes is the process's peak resident set (VmHWM).
func peakRSSBytes() (int64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", v, err)
			}
			return kb * 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// refNominalS is the reference kernel's CPU time on the host the
// benchmark was calibrated on (2-vCPU x86-64 VM). Normalised times are
// op/ref × refNominalS, so they stay in seconds.
const refNominalS = 0.25

// normalise scales an op's CPU seconds by the reference kernel's CPU
// seconds measured beside it.
func normalise(opS, refS float64) float64 { return opS / refS * refNominalS }

// refKernel is a fixed, stdlib-only CPU workload run beside every op:
// sort 2^18 floats, make 2^17 map updates and walk a 2^17-node pointer
// list laid out in random order, refReps times. It returns a checksum
// so the work cannot be optimised away.
func refKernel() uint64 {
	const n = 1 << 17
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 2*n)
	type node struct {
		next *node
		v    uint64
	}
	nodes := make([]node, n)
	m := make(map[uint32]uint64, n)
	var sum uint64
	for range refReps {
		for i := range xs {
			xs[i] = rng.Float64()
		}
		slices.Sort(xs)
		sum += math.Float64bits(xs[n])
		clear(m)
		for i := range n {
			m[uint32(rng.Int63())%(n/2)] += uint64(i)
		}
		sum += uint64(len(m))
		perm := rng.Perm(n)
		for i := range n - 1 {
			nodes[perm[i]].next = &nodes[perm[i+1]]
			nodes[perm[i]].v = uint64(i)
		}
		nodes[perm[n-1]].next = nil
		for p := &nodes[perm[0]]; p != nil; p = p.next {
			sum += p.v
		}
	}
	return sum
}

// refReps sets the kernel to about refNominalS on the calibration host.
const refReps = 4

// refSink keeps refKernel's result live.
var refSink uint64

// timeRef runs the reference kernel from a settled heap and returns
// its CPU seconds.
func timeRef() float64 {
	settle()
	c0 := cpuSeconds()
	refSink += refKernel()
	return cpuSeconds() - c0
}

// sample is one measured call: CPU, wall and the runtime counters the
// noise report prints.
type sample struct {
	cpuS, wallS float64
	allocBytes  uint64
	mallocs     uint64
	gcCycles    uint32
	faults      int64
	// refS is the reference kernel run right before fn; refAfterS the
	// one run next after it (set by bracket).
	refS, refAfterS float64
}

// norm is the sample's CPU seconds normalised by the mean of the
// reference runs before and after it, which tracks a host whose speed
// drifts during the op better than either run alone.
func (s sample) norm() float64 { return normalise(s.cpuS, (s.refS+s.refAfterS)/2) }

// bracket sets each sample's refAfterS to the reference time measured
// next: the following sample's, or tail for the last one.
func bracket(tail float64, seqs ...[]sample) {
	var prev *sample
	for _, seq := range seqs {
		for i := range seq {
			if prev != nil {
				prev.refAfterS = seq[i].refS
			}
			prev = &seq[i]
		}
	}
	if prev != nil {
		prev.refAfterS = tail
	}
}

// measure settles the heap, runs the reference kernel, settles again
// and times fn. Memory statistics are read outside the timed window.
func measure(fn func()) sample {
	var s sample
	s.refS = timeRef()
	settle()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f0 := pageFaults()
	w0 := time.Now()
	c0 := cpuSeconds()
	fn()
	s.cpuS = cpuSeconds() - c0
	s.wallS = time.Since(w0).Seconds()
	s.faults = pageFaults() - f0
	runtime.ReadMemStats(&m1)
	s.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	s.mallocs = m1.Mallocs - m0.Mallocs
	s.gcCycles = m1.NumGC - m0.NumGC
	return s
}

// median returns the middle value (mean of the two middle values for
// an even count); NaN for no data.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the first and third quartiles exactly as Python's
// statistics.quantiles(data, n=4) (the default "exclusive" method)
// computes them — the rule the benchmark's steadiness is judged by.
// It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	ld := len(s)
	m := ld + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}
