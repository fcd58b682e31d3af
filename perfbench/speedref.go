package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// The reference host does not run at one speed. Each of its vCPUs
// switches, independently and every half second or so, between states in
// which the same instructions take up to 1.9 times longer — in CPU time,
// not only wall time: other guests share the physical cores, and the
// hypervisor's steal accounting does not see it. So the benchmark runs on
// one vCPU (pinCPU) and a probe keeps timing a fixed piece of work on that
// vCPU throughout the run; an operation's CPU time divided by the probe's
// slowdown over the operation's own interval is its normalized CPU time,
// the time it would have taken in the fast state.

// probeKernel is the probe's work. It belongs to the benchmark, so no
// change to the program moves it: a quantized delta, a multiplicative
// hash, a scattered table update and a byte store per element — the mix
// of arithmetic, cache misses and streaming the codec and serving paths
// do.
func probeKernel(src []float32, tab []uint32, out []byte) uint64 {
	var h uint64
	prev := int32(0)
	mask := uint64(len(tab) - 1)
	for i, v := range src {
		q := int32(v * 1024)
		d := q - prev
		prev = q
		z := uint32(d<<1) ^ uint32(d>>31)
		h = (h ^ uint64(z)) * 1099511628211
		tab[h&mask] += z
		out[i] = byte(z) ^ byte(h>>56)
	}
	return h
}

const (
	// probeNominal is probeKernel's thread CPU time on the reference host's
	// vCPUs (Intel Xeon) in their fast state; normalized times are
	// expressed at that speed.
	probeNominal = 100 * time.Microsecond
	// probeEvery spaces the probes: about 1% of the CPU.
	probeEvery = 10 * time.Millisecond
	// probeSlack widens an operation's interval when its probes are
	// looked up, so a short operation still sees the probes around it.
	probeSlack = 2 * probeEvery
)

type probe struct {
	at time.Time
	d  time.Duration
}

// speedProbe times probeKernel every probeEvery on its own locked thread.
type speedProbe struct {
	src   []float32
	tab   []uint32
	out   []byte
	sink  uint64
	spent atomic.Int64 // the probe thread's CPU time so far, ns

	mu     sync.Mutex
	probes []probe
	quit   chan struct{}
	done   chan struct{}
}

func startSpeedProbe() *speedProbe {
	p := &speedProbe{
		src: make([]float32, 32<<10), tab: make([]uint32, 1<<14), out: make([]byte, 32<<10),
		quit: make(chan struct{}), done: make(chan struct{}),
	}
	for i := range p.src {
		p.src[i] = float32(i%4099) * 0.37
	}
	go p.loop()
	return p
}

func (p *speedProbe) loop() {
	defer close(p.done)
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	tick := time.NewTicker(probeEvery)
	defer tick.Stop()
	for {
		select {
		case <-p.quit:
			return
		case <-tick.C:
		}
		t0, c0 := time.Now(), threadCPU()
		p.sink += probeKernel(p.src, p.tab, p.out)
		d := threadCPU() - c0
		p.spent.Add(int64(d))
		p.mu.Lock()
		p.probes = append(p.probes, probe{at: t0, d: d})
		p.mu.Unlock()
	}
}

// stop ends the probe and waits for its goroutine to exit.
func (p *speedProbe) stop() {
	close(p.quit)
	<-p.done
}

// slowdown is the mean probe time over [from, to] widened by probeSlack,
// relative to probeNominal.
func (p *speedProbe) slowdown(from, to time.Time) (float64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	from, to = from.Add(-probeSlack), to.Add(probeSlack)
	i := sort.Search(len(p.probes), func(i int) bool { return !p.probes[i].at.Before(from) })
	var sum time.Duration
	n := 0
	for ; i < len(p.probes) && !p.probes[i].at.After(to); i++ {
		sum += p.probes[i].d
		n++
	}
	if n == 0 {
		return 0, fmt.Errorf("no speed probe between %v and %v", from, to)
	}
	return float64(sum) / float64(n) / float64(probeNominal), nil
}

// stats summarises the probes in ms for the environment stamp.
func (p *speedProbe) stats() (median float64, n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	d := make([]float64, len(p.probes))
	for i, x := range p.probes {
		d[i] = ms(x.d)
	}
	return percentile(d, 50).value, len(d)
}

const (
	clockProcessCPUTime = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPUTime  = 3 // CLOCK_THREAD_CPUTIME_ID
)

func clockNow(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic(fmt.Sprintf("clock_gettime(%d): %v", id, e))
	}
	return time.Duration(ts.Nano())
}

// processCPU is the CPU time every thread of the process has consumed.
// Time a thread waits for a core, and (with CONFIG_PARAVIRT_TIME_ACCOUNTING)
// time the hypervisor gives other guests, is not counted.
func processCPU() time.Duration { return clockNow(clockProcessCPUTime) }

func threadCPU() time.Duration { return clockNow(clockThreadCPUTime) }

// opTime is one operation's start, wall time and the process CPU time
// spent while it ran, less the speed probe's own.
type opTime struct {
	start     time.Time
	wall, cpu time.Duration
}

// timeOp runs fn and times it. A nil p times calls inside an operation
// that is itself being timed; their CPU time keeps the probe's share.
func (p *speedProbe) timeOp(fn func() error) (opTime, error) {
	var s0 int64
	if p != nil {
		s0 = p.spent.Load()
	}
	c0, t0 := processCPU(), time.Now()
	err := fn()
	t := opTime{start: t0, wall: time.Since(t0), cpu: processCPU() - c0}
	if p != nil {
		t.cpu -= time.Duration(p.spent.Load() - s0)
	}
	return t, err
}

// norm is o's CPU time at the fast state's speed.
func (p *speedProbe) norm(o opTime) (time.Duration, error) {
	f, err := p.slowdown(o.start, o.start.Add(o.wall))
	if err != nil {
		return 0, err
	}
	return time.Duration(float64(o.cpu) / f), nil
}

// cpuSet is a sched_setaffinity mask.
type cpuSet [16]uint64

func getAffinity() (cpuSet, error) {
	var s cpuSet
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s))); e != 0 {
		return s, e
	}
	return s, nil
}

// setAffinity applies s to every thread the process has; threads created
// later inherit it from their creator.
func setAffinity(s cpuSet) error {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s)))
		if e != 0 && e != syscall.ESRCH { // ESRCH: the thread has exited
			return fmt.Errorf("sched_setaffinity(%d): %v", tid, e)
		}
	}
	return nil
}

// pinning confines the process to one CPU and can undo it. GOMAXPROCS
// stays at the CPU count, so the program sizes its worker pools as on an
// unpinned host and takes the same code paths; they take turns on the CPU.
type pinning struct {
	cpu int
	all cpuSet
}

// pinCPU moves the whole process onto the highest-numbered CPU it may
// use.
func pinCPU() (*pinning, error) {
	all, err := getAffinity()
	if err != nil {
		return nil, err
	}
	cpu := -1
	for i := len(all)*64 - 1; i >= 0 && cpu < 0; i-- {
		if all[i/64]&(1<<(i%64)) != 0 {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, fmt.Errorf("empty CPU affinity mask")
	}
	p := &pinning{cpu: cpu, all: all}
	return p, p.repin()
}

// release gives the process back every CPU it had.
func (p *pinning) release() error { return setAffinity(p.all) }

// repin confines the process to its one CPU again.
func (p *pinning) repin() error {
	var one cpuSet
	one[p.cpu/64] = 1 << (p.cpu % 64)
	return setAffinity(one)
}
