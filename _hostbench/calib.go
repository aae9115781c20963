package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on is shared: other tenants' load on the
// caches and memory moves the CPU time of the same simulator work by
// 15-25% over minutes, and steal time does not show it. So for the
// workloads whose host time goes to the simulator's pointer-chasing
// (every workload but cifar10-real-4, whose dense float loops do not
// follow the chase) the gated times are normalised by a reference that is
// part of the benchmark, not of the program: between calls the run times
// a fixed pointer chase, and expresses the program's CPU time in what it
// would be on a host where the chase takes its nominal time. A change to
// the program moves the normalised figures as it moves the raw ones; a
// host whose caches are more or less contended moves both the program
// and the reference, and cancels.
const (
	// calibEvery is the least time between two reference slices; slices
	// run only between calls.
	calibEvery = 250 * time.Millisecond
	// calibWarm slices run when the calibrator is made, before set-up.
	calibWarm = 8

	refChaseSteps = 40_000
	// refChaseBytes is the pointer-chase region: past the per-core L2,
	// so the chase waits on the shared cache and memory that neighbours
	// contend for.
	refChaseBytes = 8 << 20
	// refChaseNominalMs is the nominal thread CPU time of one slice, about
	// its median on the 2-vCPU Intel Xeon VM the goldens were recorded
	// on. It fixes the unit of the normalised figures, nothing more.
	refChaseNominalMs = 5.5
)

// calibrator times the reference slices. Its chase region is mapped
// outside the Go heap so that it neither moves the program's GC pacing
// nor is scanned; it is touched in full once, so it adds exactly
// refChaseBytes to the resident set for the whole run.
type calibrator struct {
	region []byte
	next   []int32
	chase  []float64 // thread CPU ms per slice
	last   time.Time
	pos    uint32 // where the next slice starts
}

func newCalibrator() (*calibrator, error) {
	region, err := syscall.Mmap(-1, 0, refChaseBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil, fmt.Errorf("calibration region: %w", err)
	}
	c := &calibrator{region: region, next: unsafe.Slice((*int32)(unsafe.Pointer(&region[0])), refChaseBytes/4)}
	// One random cycle through every slot (Sattolo's algorithm), so the
	// chase visits the whole region in an order the prefetcher cannot
	// follow.
	for i := range c.next {
		c.next[i] = int32(i)
	}
	rng := rand.New(rand.NewSource(7))
	for i := len(c.next) - 1; i > 0; i-- {
		j := rng.Intn(i)
		c.next[i], c.next[j] = c.next[j], c.next[i]
	}
	for i := 0; i < calibWarm; i++ {
		c.slice()
	}
	return c, nil
}

func (c *calibrator) close() {
	syscall.Munmap(c.region)
	c.region, c.next = nil, nil
}

// between runs a slice if calibEvery has passed since the last one.
func (c *calibrator) between() {
	if c != nil && time.Since(c.last) >= calibEvery {
		c.slice()
	}
}

// slice times one chase on the calling goroutine's own thread, so GC
// work the program left running on another thread is not counted. Each
// slice goes on from where the last one stopped.
func (c *calibrator) slice() {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	p := c.pos
	t0 := threadCPU()
	for i := 0; i < refChaseSteps; i++ {
		p = uint32(c.next[p])
	}
	t1 := threadCPU()
	c.pos = p
	c.chase = append(c.chase, float64(t1-t0)/float64(time.Millisecond))
	c.last = time.Now()
}

// scale is the factor that turns this host's CPU time into normalised
// CPU time: the nominal over the measured median slice. It is below 1
// on a host slower than nominal.
func (c *calibrator) scale() float64 {
	return refChaseNominalMs / median(c.chase)
}

// threadCPU is the calling thread's CPU time so far.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}
