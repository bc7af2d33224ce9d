package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"syscall"
	"time"
)

// round is one set-up cluster's worth of timed ops. A run is several
// rounds; every end-to-end metric is the median of its per-round values,
// so one disturbed round cannot move a run's figure.
type round struct {
	setup  time.Duration
	opUS   []float64
	cpu    time.Duration
	cshare time.Duration
	alloc  uint64
	wall   time.Duration
	ops    int
	failed int
	calib  []float64
}

// window brackets one timed region: process CPU, bytes allocated and wall
// time. Open it after the between-op GC and close it before verification,
// so neither lands on the op's clock.
type window struct {
	cpu   time.Duration
	alloc uint64
	start time.Time
}

func openWindow() window {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return window{alloc: ms.TotalAlloc, cpu: processCPU(), start: time.Now()}
}

// close adds the region's wall time, CPU and allocation to r.
func (w window) close(r *round) {
	wall := time.Since(w.start)
	cpu := processCPU()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.wall += wall
	r.cpu += cpu - w.cpu
	r.alloc += ms.TotalAlloc - w.alloc
}

// processCPU is the process's user+sys CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("perfbench: getrusage: " + err.Error())
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// settle keeps one op's garbage off the next op's clock and samples the
// host: a forced GC, then the fixed calibration kernel.
func settle(r *round) {
	runtime.GC()
	r.calib = append(r.calib, calibrate())
}

// calibSink keeps the calibration kernel's result live.
var calibSink float64

// calibrate times a fixed 64×64 float matrix product. It predicts nothing
// about the DSM; it shows machine drift next to every other number.
func calibrate() float64 {
	const n = 64
	var a, b, c [n * n]float64
	for i := range a {
		a[i] = float64(i%7) + 0.5
		b[i] = float64(i%5) - 1.5
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			aik := a[i*n+k]
			for j := 0; j < n; j++ {
				c[i*n+j] += aik * b[k*n+j]
			}
		}
	}
	d := time.Since(start)
	calibSink += c[n*n-1]
	return us(d)
}

// endToEndMetrics turns a run's rounds into the end-to-end metrics.
func endToEndMetrics(rounds []*round) *result {
	res := &result{Correct: true, Metrics: map[string]metric{}}
	var setup, p50, p90, cpu, cshare, alloc, rate, calib []float64
	for _, r := range rounds {
		res.Attempted += r.ops
		res.Failed += r.failed
		setup = append(setup, r.setup.Seconds())
		calib = append(calib, r.calib...)
		if len(r.opUS) == 0 {
			continue
		}
		ops := float64(r.ops)
		p50 = append(p50, quantile(r.opUS, 0.5))
		p90 = append(p90, quantile(r.opUS, 0.9))
		cpu = append(cpu, us(r.cpu)/ops)
		cshare = append(cshare, us(r.cshare)/ops)
		alloc = append(alloc, float64(r.alloc)/1024/ops)
		rate = append(rate, ops/r.wall.Seconds())
		res.rounds = append(res.rounds, fmt.Sprintf("round %d: op_us_p50 %.1f cpu_us_per_op %.1f cshare_us_per_op %.1f setup_s %.4f",
			len(res.rounds), p50[len(p50)-1], cpu[len(cpu)-1], cshare[len(cshare)-1], r.setup.Seconds()))
	}
	res.Correct = res.Failed == 0
	res.Metrics["setup_s"] = metric{median(setup), "s"}
	res.Metrics["op_us_p50"] = metric{median(p50), "us"}
	res.Metrics["op_us_p90"] = metric{median(p90), "us"}
	res.Metrics["cpu_us_per_op"] = metric{median(cpu), "us"}
	res.Metrics["cshare_us_per_op"] = metric{median(cshare), "us"}
	res.Metrics["alloc_kb_per_op"] = metric{median(alloc), "KiB"}
	res.Metrics["ops_per_s"] = metric{median(rate), "1/s"}
	res.calibUS = median(calib)
	return res
}

// goStats reads the runtime/metrics the traced run reports.
type goStats struct {
	gcCycles uint64
	gcCPU    float64
	usedCPU  float64
}

var goSamples = []metrics.Sample{
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
}

func readGoStats() goStats {
	s := make([]metrics.Sample, len(goSamples))
	copy(s, goSamples)
	metrics.Read(s)
	return goStats{
		gcCycles: s[0].Value.Uint64(),
		gcCPU:    s[1].Value.Float64(),
		usedCPU:  s[2].Value.Float64() - s[3].Value.Float64(),
	}
}

func (g goStats) sub(o goStats) goStats {
	return goStats{gcCycles: g.gcCycles - o.gcCycles, gcCPU: g.gcCPU - o.gcCPU, usedCPU: g.usedCPU - o.usedCPU}
}

func (g *goStats) add(o goStats) {
	g.gcCycles += o.gcCycles
	g.gcCPU += o.gcCPU
	g.usedCPU += o.usedCPU
}

// heapWatch samples the live heap every millisecond until stopped and
// keeps the peak.
type heapWatch struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func watchHeap() *heapWatch {
	h := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak in MiB.
func (h *heapWatch) finish() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// failuresLogged caps the failed-op reasons written to stderr.
var failuresLogged atomic.Int32

// fail counts one failed op and reports why.
func (r *round) fail(err error) {
	r.failed++
	logFailure(err)
}

// logFailure writes the reason for a failure to stderr, for the first few.
func logFailure(err error) {
	if failuresLogged.Add(1) <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: op failed: %v\n", err)
	}
}
