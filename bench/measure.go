package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"shareinsights/internal/obs"
)

// step is one request (or facade call) of a workload's cycle. Its name
// is the stem of its per-request metrics (run, select, save, ...).
type step struct {
	name string
	do   func(cycle int) error
}

// env is one set-up instance of a workload: a started system, the fixed
// request sequence that makes one cycle, and the checks on what it
// serves.
type env struct {
	steps []step
	// check compares served cells with the generator's reference answers
	// for the state cycle left behind.
	check func(cycle int) error
	// verify runs once after the measured section (author_durable's
	// close, reopen and acknowledged-prefix check); nil elsewhere.
	verify func() error
	// stop releases the system: server, listener, store, data directory.
	stop func()
	// replay pushes cycle's inputs through the layers (see replay.go).
	replay func(rp *replayer, cycle int)

	sys *system // nil for batch_join, which has no HTTP
	// seq is batch_join's op-sequence hash (HTTP workloads keep theirs on
	// sys).
	seq func() uint64

	// rec receives spans while tracing; nil otherwise.
	rec *recorder
	// joinTrace is the program's own trace of batch_join's current op
	// (the platform tracer the CLI's `run -trace` attaches).
	joinTrace *obs.Trace
	rendered  int64 // bytes RenderText has written

	// traceOf returns the program's own trace of cycle's run as Chrome
	// events, through the surface a user would read it from; nil where a
	// cycle runs nothing (serve_hot's runs are result-cache hits).
	traceOf func(cycle int) ([]chromeEvent, error)
	// What one cycle hands the connectors, and (author_durable) the flow
	// text one cycle saves: the denominators of decode_mb_s,
	// rows_skipped_ratio and write_amp.
	sourceRowsPerOp, sourceBytesPerOp, savedBytesPerOp float64

	// author_durable only: the store directory, the journal meter of the
	// traced section, the snapshot replay, and what verify measured.
	dataDir        string
	wal            *walMeter
	replaySnapshot func(rp *replayer, component string, size int)
	diskMB         float64
	recoverMS      float64
}

// historyPriming is history.Options.MinSamples' default: a stage
// baseline, and with it the optimizer's evidence, exists after this many
// runs of a dashboard.
const historyPriming = 3

// checkEvery is the measured-section spacing of correctness checks.
const checkEvery = 50

// blocks is how many equal parts the measured section is split into for
// the noisy-neighbour check.
const blocks = 5

// noisySpread marks a run whose fastest block outran its slowest by
// more than this factor.
const noisySpread = 1.15

// sample is what one measured section observed.
type sample struct {
	cycles   int
	failed   int
	opMS     []float64            // one per cycle, in issue order
	stepMS   map[string][]float64 // per step name, one per cycle
	wall     time.Duration
	cpu      time.Duration
	mem0     runtime.MemStats
	mem1     runtime.MemStats
	blockS   [blocks]float64 // wall seconds of each block
	gcCPU    float64         // GC CPU seconds spent inside the section
	outBytes int64           // bytes of output delivered to the client
	firstEr  error
}

// cycleOnce runs one cycle and returns the whole-cycle and per-step
// latencies; the cycle's latency is the sum of its steps'. A failing
// step fails the op and skips the rest of its cycle: the next cycle
// starts from whatever state the server is in. While tracing, the
// program's own trace of the run is read between steps, off the clock.
func (e *env) cycleOnce(cycle int, stepMS []float64) (float64, error) {
	if e.rec != nil {
		e.rec.cycle = cycle
	}
	span := e.rec.start("cycle", layerCycle)
	defer e.rec.end(span)
	total := 0.0
	for i, st := range e.steps {
		s0 := time.Now()
		if err := st.do(cycle); err != nil {
			return 0, fmt.Errorf("cycle %d %s: %w", cycle, st.name, err)
		}
		stepMS[i] = ms(time.Since(s0))
		total += stepMS[i]
		if e.rec != nil && st.name == "run" && e.traceOf != nil {
			events, err := e.traceOf(cycle)
			if err != nil {
				return 0, fmt.Errorf("cycle %d: read the run's trace: %w", cycle, err)
			}
			e.rec.importProgramTrace(e.rec.lastClient, events)
		}
	}
	if e.rec != nil && e.wal != nil {
		if err := e.wal.observe(e.sys); err != nil {
			return 0, fmt.Errorf("cycle %d: %w", cycle, err)
		}
	}
	return total, nil
}

// warmUp runs the discarded cycles [0, n). It checks each of the first
// `every` cycles (until each dashboard has run historyPriming times),
// then every checkEvery-th as the measured section does.
func (e *env) warmUp(n, every int) error {
	stepMS := make([]float64, len(e.steps))
	for c := 0; c < n; c++ {
		if _, err := e.cycleOnce(c, stepMS); err != nil {
			return err
		}
		if c < every || c%checkEvery == 0 {
			if err := e.check(c); err != nil {
				return fmt.Errorf("cycle %d check: %w", c, err)
			}
		}
	}
	return nil
}

// measure runs cycles [first, first+n) on the clock. The count is fixed,
// not the duration, so allocation, fsync, compaction and cache counts
// are the same in every run of the same code.
func (e *env) measure(first, n int) *sample {
	s := &sample{cycles: n, stepMS: map[string][]float64{}, opMS: make([]float64, 0, n)}
	for _, st := range e.steps {
		s.stepMS[st.name] = make([]float64, 0, n)
	}
	stepMS := make([]float64, len(e.steps))
	fail := func(err error) {
		s.failed++
		if s.firstEr == nil {
			s.firstEr = err
		}
	}

	runtime.GC()
	runtime.ReadMemStats(&s.mem0)
	gc0 := gcCPUSeconds()
	out0 := e.outputBytes()
	cpu0 := processCPU()
	start := time.Now()
	blockStart := start
	for i := 0; i < n; i++ {
		c := first + i
		op, err := e.cycleOnce(c, stepMS)
		if err != nil {
			// A failed, refused or wrong-answer op sorts above every
			// latency.
			fail(err)
			s.opMS = append(s.opMS, math.Inf(1))
		} else {
			s.opMS = append(s.opMS, op)
			for j, st := range e.steps {
				s.stepMS[st.name] = append(s.stepMS[st.name], stepMS[j])
			}
			if i%checkEvery == 0 {
				if err := e.check(c); err != nil {
					fail(fmt.Errorf("cycle %d check: %w", c, err))
					s.opMS[len(s.opMS)-1] = math.Inf(1)
				}
			}
		}
		if b := (i + 1) * blocks / n; b > i*blocks/n {
			now := time.Now()
			s.blockS[b-1] = now.Sub(blockStart).Seconds()
			blockStart = now
		}
	}
	s.wall = time.Since(start)
	s.cpu = processCPU() - cpu0
	s.gcCPU = gcCPUSeconds() - gc0
	s.outBytes = e.outputBytes() - out0
	runtime.ReadMemStats(&s.mem1)
	return s
}

// outputBytes counts what the program has delivered to its user so far:
// HTTP response bodies, or for batch_join the rendered text.
func (e *env) outputBytes() int64 {
	if e.sys != nil {
		return e.sys.respBytes
	}
	return e.rendered
}

// blockSpread is max / min block throughput over the section's equal
// blocks of cycles.
func (s *sample) blockSpread() float64 {
	lo, hi := math.Inf(1), 0.0
	for _, b := range s.blockS {
		lo, hi = math.Min(lo, b), math.Max(hi, b)
	}
	if lo <= 0 {
		return 1
	}
	return hi / lo
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// processCPU is user+system CPU time of this process, GC included.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// percentile returns the p-quantile (nearest rank) of xs; failed ops
// are +Inf and so sort above every latency.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// liveHeapMB is HeapAlloc after two forced collections: what caches,
// rings and repositories retain, independent of when the GC last ran.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
