package main

import (
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"
)

// phase brackets one measured phase: the Go runtime's
// allocation and GC deltas, the peak live-plus-unswept heap sampled every
// 10 ms, and the host's CPU steal: the share of CPU time the hypervisor
// gave to other guests, which slows every timing of the run.
type phase struct {
	start       time.Time
	peakHeapMiB float64
	allocBytes  float64
	gcCycles    float64
	stealPct    float64 // -1 when the host does not report steal

	before     []metrics.Sample
	steal, cpu int64
	quit       chan struct{}
	wg         sync.WaitGroup
	peak       uint64 // written by the sampler, read after it exits
}

const (
	mAllocs  = "/gc/heap/allocs:bytes"
	mCycles  = "/gc/cycles/total:gc-cycles"
	mHeapObj = "/memory/classes/heap/objects:bytes"
)

func readRuntime(names ...string) []metrics.Sample {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

// cpuTicks reads the host's cumulative steal and total CPU ticks from the
// first line of /proc/stat (ok = false where it is unavailable).
func cpuTicks() (steal, total int64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, x := range f[1:] {
		v, err := strconv.ParseInt(x, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

func startPhase() *phase {
	p := &phase{before: readRuntime(mAllocs, mCycles), quit: make(chan struct{}), stealPct: -1}
	p.steal, p.cpu, _ = cpuTicks()
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		s := make([]metrics.Sample, 1)
		s[0].Name = mHeapObj
		for {
			metrics.Read(s)
			p.peak = max(p.peak, s[0].Value.Uint64())
			select {
			case <-p.quit:
				return
			case <-tick.C:
			}
		}
	}()
	p.start = time.Now()
	return p
}

// stop ends the phase and waits for the heap sampler to exit.
func (p *phase) stop() {
	close(p.quit)
	p.wg.Wait()
	after := readRuntime(mAllocs, mCycles)
	p.allocBytes = float64(after[0].Value.Uint64() - p.before[0].Value.Uint64())
	p.gcCycles = float64(after[1].Value.Uint64() - p.before[1].Value.Uint64())
	p.peakHeapMiB = float64(p.peak) / (1 << 20)
	if steal, cpu, ok := cpuTicks(); ok && p.cpu > 0 && cpu > p.cpu {
		p.stealPct = 100 * float64(steal-p.steal) / float64(cpu-p.cpu)
	}
}
