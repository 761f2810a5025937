package main

import (
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The reference VM shares its host, and the host's load moves a run's
// times in two ways the program has no part in. The same svc-reselect
// run (same code, same seed) measured an op p50 of 0.11 s at one time
// and 0.24 s an hour later, and ten consecutive select-mpck runs spread
// by 43% (IQR over median) in wall time. The benchmark measures both
// ways and takes them out of the times it reports:
//
//   - Steal. The hypervisor runs other guests on the vCPUs this process
//     is waiting for. The guest kernel counts that time as steal in
//     /proc/stat and leaves it out of the process's CPU time, so the
//     share of its runnable time the process ran over an interval is
//     cpu ÷ (cpu + steal) (runShare). An op's wall time is multiplied by
//     its own share; on a quiet host the share is exactly 1.
//   - Speed. A busy sibling hyperthread or a lower clock makes every
//     instruction slower. A fixed kernel that shares no code with the
//     repository is timed before every op, on both vCPUs at once as the
//     ops run, each copy in its thread's CPU time, which steal does not
//     reach; a phase's times are multiplied by calNominal ÷ the phase's
//     median kernel time (scale). Set-up has its own samples, taken
//     before each unit of set-up work.
//
// The kernel must see the host, not the program, so it runs only once
// the process is idle: the op loop first waits for the previous op's
// trailing work (on the service workloads, the job's terminal store
// write and evictions; see workload.settle), and sample waits for any
// garbage-collection mark phase in flight and keeps the collector off
// while the kernel runs. Work a change adds after an op's result —
// trailing writes, garbage to collect — then lands in ops_per_s, whose
// interval holds these waits, rather than in the kernel's time.
const calNominal = 1e-3 // kernel CPU seconds on the quiet reference machine

// hostSample is the process's CPU time and the stolen time of every
// vCPU, at one instant.
type hostSample struct {
	cpu, steal time.Duration
}

// userHZ is the unit of /proc/stat: 100 ticks a second on Linux.
const userHZ = 100

// readHost samples the process's CPU time (getrusage, every thread) and
// the machine's steal time (/proc/stat, all vCPUs). A field it cannot
// read stays 0, which makes runShare 1: the time is reported unchanged.
func readHost() hostSample {
	var h hostSample
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		h.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return h
	}
	// cpu  user nice system idle iowait irq softirq steal ...
	line, _, _ := strings.Cut(string(data), "\n")
	if f := strings.Fields(line); len(f) > 8 && f[0] == "cpu" {
		if ticks, err := strconv.ParseInt(f[8], 10, 64); err == nil {
			h.steal = time.Duration(ticks) * time.Second / userHZ
		}
	}
	return h
}

// runShare is the share of its runnable time the process ran between a
// and b: its CPU time over CPU time plus steal. It is 1 when nothing was
// stolen.
func runShare(a, b hostSample) float64 {
	cpu, steal := b.cpu-a.cpu, b.steal-a.steal
	if steal <= 0 || cpu <= 0 {
		return 1
	}
	return float64(cpu) / float64(cpu+steal)
}

// threadCPU is the calling thread's CPU time: clock_gettime with
// CLOCK_THREAD_CPUTIME_ID, exact to the nanosecond and blind to steal.
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// calibrator times the kernel and keeps its samples.
type calibrator struct {
	// pts are the kernel's 64 points in 16 dimensions, 8 KB, within
	// the core's first-level cache: the kernel tracks the core, not
	// memory, and its live bytes leave the collector's heap goal alone.
	pts     [][]float64
	sink    float64
	samples []float64
	spent   time.Duration // in kernel passes, timed or not
}

func newCalibrator() *calibrator {
	c := &calibrator{pts: make([][]float64, 64)}
	for i := range c.pts {
		c.pts[i] = make([]float64, 16)
		for j := range c.pts[i] {
			c.pts[i][j] = math.Sin(float64(16*i + j))
		}
	}
	return c
}

// calPasses is how many timed passes each copy of the kernel makes in
// one sample. Set-up samples once per unit of work, and svc-dist's
// set-up has few units: with one pass per sample and one sample per
// round, its set-up scale read between 0.44 and 0.71 over five runs on
// a busy host.
const calPasses = 3

// sample runs the kernel on procs locked threads at once — the two
// vCPUs busy together, as they are during an op — and keeps each timed
// pass's thread CPU time. On a busy host, five runs of each workload
// spread by 10-17% (op_s_p50, IQR ÷ median) scaled by the kernel on one
// thread, which saw the host with the other vCPU idle, and by 3-7%
// scaled by the kernel on two. Disabling the collector returns
// only once no mark phase is running, and the kernel allocates nothing.
// An untimed pass first brings pts back into the cache, so the timed
// passes do not depend on what the previous op evicted, and lines the
// threads up.
func (c *calibrator) sample() {
	gcPercent := debug.SetGCPercent(-1)
	warm := time.Now()
	var ready, done sync.WaitGroup
	times := make([][]float64, procs)
	sums := make([]float64, procs)
	ready.Add(procs)
	done.Add(procs)
	for t := range procs {
		go func() {
			defer done.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			sums[t] += kernelPass(c.pts)
			ready.Done()
			ready.Wait()
			for range calPasses {
				start := threadCPU()
				sums[t] += kernelPass(c.pts)
				times[t] = append(times[t], (threadCPU() - start).Seconds())
			}
		}()
	}
	done.Wait()
	c.spent += time.Since(warm)
	debug.SetGCPercent(gcPercent)
	for t := range procs {
		c.samples = append(c.samples, times[t]...)
		c.sink += sums[t]
	}
}

// kernelPass is the kernel, the inner loop of a nearest-neighbour
// search: for every point, the squared distance to every other and the
// smallest of them, 24 times over, about 1 ms. Distances are what the
// clustering layers spend their time on, so the kernel slows with the
// core as they do.
func kernelPass(pts [][]float64) float64 {
	s := 0.0
	for r := 0; r < 24; r++ {
		for i, p := range pts {
			best := math.Inf(1)
			for j, q := range pts {
				if i == j {
					continue
				}
				d := 0.0
				for k := range p {
					x := p[k] - q[k]
					d += x * x
				}
				if d < best {
					best = d
				}
			}
			s += best
		}
	}
	return s
}

// scale converts the sampled phase's steal-free seconds to reference
// seconds.
func (c *calibrator) scale() float64 {
	m := median(c.samples)
	if !(m > 0) {
		return 1
	}
	return calNominal / m
}
