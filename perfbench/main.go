// Command perfbench is reesift's benchmark. It runs one workload through
// the public entry points (reesift.Campaign.Run, reesift.Injection.Run)
// for --seconds of wall time, checks every trial's outcome and the
// workload's behaviour fingerprint, and prints the end-to-end metrics
// (--trace 0) or, from a separate traced run, the per-layer metrics
// (--trace 1). The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": u}, ...}}
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload oneshot-campaign --seed 1 --seconds 45 --trace 0
//
// Workloads, metric definitions and the layer predictions are described
// in perfbench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final JSON line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a run hands back to main.
type outcome struct {
	report
	// problems lists everything that made the run incorrect.
	problems []string
	// fingerprint is the behaviour fingerprint of the reference batches.
	fingerprint uint64
}

func (o *outcome) set(name string, v float64, unit string) {
	o.Metrics[name] = metric{Value: v, Unit: unit}
}

func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func main() {
	name := flag.String("workload", "", "workload: oneshot-campaign, chaos-day or scale-wide")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "host seconds to measure")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	spansOut := flag.String("spans", "", "traced run: write spans as JSON lines here (default .bench_build/spans-<workload>.jsonl)")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	budget := time.Duration(*seconds * float64(time.Second))
	fmt.Printf("perfbench: GOMAXPROCS=%d NumCPU=%d %s\n", runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	var out *outcome
	var err error
	if *traced == 1 {
		path := *spansOut
		if path == "" {
			path = ".bench_build/spans-" + w.name + ".jsonl"
		}
		out, err = runTraced(w, *seed, budget, path)
	} else {
		out, err = runEndToEnd(w, *seed, budget)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", w.name, p)
	}
	out.Correct = len(out.problems) == 0
	printMetrics(out.Metrics)
	line, err := json.Marshal(out.report)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string { return slices.Sorted(maps.Keys(workloads)) }

// printMetrics writes one human-readable line per metric.
func printMetrics(m map[string]metric) {
	for _, n := range slices.Sorted(maps.Keys(m)) {
		fmt.Printf("%-28s %16.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// setupReps is how often a run repeats its set-up; setup_s is the
// median. The repetitions are spread evenly over the timed loop, the
// first before its first batch, so the median sees the host as the
// timed metrics do. Their host time, wall time, allocations and heap
// peaks are kept out of the timed figures.
const setupReps = 16

// runEndToEnd is the untraced run: batches in a closed loop until the
// budget is spent, with the set-up repetitions between them, then the
// correctness checks.
func runEndToEnd(w *workload, seed int64, budget time.Duration) (*outcome, error) {
	out := &outcome{report: report{Metrics: make(map[string]metric)}}
	heap := startHeapSampler()
	var setups []float64 // s
	var skipCPU, skipWall time.Duration
	var skipAlloc allocCounts
	// excluded runs f outside the timed figures: its host time, wall
	// time, allocations and heap peak are kept out of them.
	excluded := func(f func() error) error {
		w0, c0, a0 := time.Now(), processCPU(), readAllocs()
		err := f()
		a1 := readAllocs()
		skipCPU += processCPU() - c0
		skipWall += time.Since(w0)
		skipAlloc.objects += a1.objects - a0.objects
		skipAlloc.bytes += a1.bytes - a0.bytes
		heap.take()
		return err
	}
	setUp := func() error {
		return excluded(func() error {
			// Each repetition starts from a collected heap, so where the
			// loop left the GC cycle does not move it.
			runtime.GC()
			c0 := processCPU()
			if err := w.setup(seed); err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
			setups = append(setups, (processCPU() - c0).Seconds())
			return nil
		})
	}
	var kernelCPU, kernelWall []float64 // calibration kernel times, s
	calibrateNow := func() error {
		c, wl := calibrate(w.workers)
		kernelCPU = append(kernelCPU, c.Seconds())
		kernelWall = append(kernelWall, wl.Seconds())
		return nil
	}

	alloc0 := readAllocs()
	start := time.Now()
	cpu0 := processCPU()
	var ref [][]trialRecord // the reference batches, for the fingerprint
	var sum tally
	var lat []float64   // host times of the trials of one-worker batches, ms
	var peaks []float64 // per batch, MB
	// Wall-clock throughput at the workload's worker count is the median
	// over its batches, so a stall of the host moves one batch, not the
	// figure. speedups pairs each one-worker batch with the batch before.
	var wallRates, speedups []float64
	var lastWall float64
	batches := 0
	for ; batches < w.refBatches || time.Since(start) < budget; batches++ {
		if len(setups) < setupReps && time.Since(start) >= time.Duration(len(setups))*budget/setupReps {
			if err := setUp(); err != nil {
				return nil, err
			}
		}
		excluded(calibrateNow)
		b, workers := batches, w.batchWorkers(batches)
		b0 := time.Now()
		recs, err := w.run(seed, b, workers)
		if err != nil {
			return nil, fmt.Errorf("batch %d: %w", b, err)
		}
		bw := time.Since(b0).Seconds()
		peaks = append(peaks, float64(heap.take())/1e6)
		excluded(func() error {
			judge(w, recs, out)
			sum.add(recs)
			if workers == w.workers {
				wallRates = append(wallRates, float64(len(recs))/bw)
			} else {
				speedups = append(speedups, bw/lastWall)
			}
			lastWall = bw
			if workers == 1 {
				for _, t := range recs {
					lat = append(lat, float64(t.cpu)/float64(time.Millisecond))
				}
			}
			if b < w.refBatches {
				ref = append(ref, recs)
			}
			return nil
		})
	}
	wall := time.Since(start) - skipWall
	cpu := processCPU() - cpu0 - skipCPU
	alloc1 := readAllocs()
	alloc1.objects -= skipAlloc.objects
	alloc1.bytes -= skipAlloc.bytes
	heap.stop()
	// A loop cut short (a budget smaller than the batches take) leaves
	// repetitions over; they run after it.
	for len(setups) < setupReps {
		if err := setUp(); err != nil {
			return nil, err
		}
	}

	out.Attempted = sum.trials
	checkRepeat(w, seed, ref, out)

	simDays := sum.simTime.Hours() / 24
	fmt.Printf("workload %s seed %d: %d trials in %d batches, %.3f s wall, %.3f s CPU, %.4f sim-days, %.4g wall s/sim-day\n",
		w.name, seed, sum.trials, batches, wall.Seconds(), cpu.Seconds(), simDays, wall.Seconds()/simDays)
	fmt.Printf("setup_s over %d repetitions: min %.4f median %.4f max %.4f\n", len(setups), slices.Min(setups), median(setups), slices.Max(setups))
	fmt.Printf("wall trials/s over %d batches: median %.4f; speedup over %d pairs: median %.4f\n", len(wallRates), median(wallRates), len(speedups), median(speedups))
	fmt.Printf("trial_ms over %d trials of one-worker batches: p50 %.4f p95 %.4f\n", len(lat), quantile(lat, 0.5), quantile(lat, 0.95))

	// Host times are scaled by the run's pace (see pace.go): above 1 the
	// host ran slower than the nominal pace, and times shrink by it.
	pace := median(kernelCPU) / paceNominal.Seconds()
	wallPace := median(kernelWall) / paceNominal.Seconds()
	hostS := cpu.Seconds() / pace
	fmt.Printf("host pace over %d calibrations on %d goroutines: kernel median %.4f ms CPU per copy, %.4f ms wall; nominal %v; pace %.4f CPU, %.4f wall (metrics below are scaled by it)\n",
		len(kernelCPU), w.workers, median(kernelCPU)*1e3, median(kernelWall)*1e3, paceNominal, pace, wallPace)

	out.set("setup_s", median(setups)/pace, "s")
	out.set("trials_per_s", float64(sum.trials)/hostS, "trials/s")
	out.set("wall_trials_per_s", median(wallRates)*wallPace, "trials/s")
	out.set("trial_ms_p50", quantile(lat, 0.5)/pace, "ms")
	out.set("trial_ms_p95", quantile(lat, 0.95)/pace, "ms")
	out.set("host_s_per_sim_day", hostS/simDays, "s")
	out.set("events_per_s", float64(sum.events)/hostS, "events/s")
	out.set("allocs_per_sim_day", float64(alloc1.objects-alloc0.objects)/simDays, "count")
	out.set("alloc_mb_per_sim_day", float64(alloc1.bytes-alloc0.bytes)/1e6/simDays, "MB")
	// The 90th percentile of batch peaks: a single GC-timing spike does
	// not move it, and on oneshot it lands among the two-worker batches.
	out.set("peak_heap_mb", quantile(peaks, 0.9), "MB")
	out.set("sim_recovery_s_mean", sum.recoveryMean(), "s")
	out.set("sim_availability", sum.availability(), "fraction")
	return out, nil
}

// checkRepeat re-runs the reference batches, each at the other worker
// count than the timed loop ran it (multi-worker workloads) or again on
// one worker, and demands the same behaviour fingerprint: repetition and
// worker-count invariance in one check.
func checkRepeat(w *workload, seed int64, ref [][]trialRecord, out *outcome) {
	first := fingerprint(flatten(ref))
	var again []trialRecord
	for b := 0; b < w.refBatches; b++ {
		workers := w.workers
		if w.batchWorkers(b) > 1 {
			workers = 1
		}
		recs, err := w.run(seed, b, workers)
		if err != nil {
			out.fail("repeat of batch %d: %v", b, err)
			return
		}
		again = append(again, recs...)
	}
	second := fingerprint(again)
	out.fingerprint = first
	fmt.Printf("fingerprint %s seed %d: %016x (timed loop), %016x (repeat at the other worker count)\n", w.name, seed, first, second)
	if first != second {
		out.fail("behaviour fingerprint changed on repetition: %016x then %016x", first, second)
	}
}

// judge counts the trials that broke a workload invariant as failed and
// records wrong output as a problem that makes the run incorrect.
func judge(w *workload, recs []trialRecord, out *outcome) {
	for _, t := range recs {
		if msg := w.check(t); msg != "" {
			out.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s: failed trial, seed %d (%s): %s\n", w.name, t.res.Seed, t.cell, msg)
		}
		if w.verify == nil {
			continue
		}
		if msg := w.verify(t); msg != "" {
			out.fail("trial seed %d (%s): %s", t.res.Seed, t.cell, msg)
		}
	}
}

func flatten(batches [][]trialRecord) []trialRecord {
	var all []trialRecord
	for _, b := range batches {
		all = append(all, b...)
	}
	return all
}

// tally sums the timed loop's per-trial figures, so the loop keeps no
// trial records beyond the reference batches: a store of them that grew
// through the run would be the benchmark's own heap, counted in
// peak_heap_mb and marked by every collection.
type tally struct {
	trials     int
	simTime    time.Duration
	events     uint64
	recovery   time.Duration // summed down intervals and recovery times
	recoveries int
	available  float64 // summed availability
}

func (t *tally) add(recs []trialRecord) {
	for _, r := range recs {
		t.trials++
		t.simTime += r.res.SimTime
		t.events += r.res.EventsFired
		if c := r.res.Chaos; c != nil {
			for _, d := range c.Down {
				t.recovery += d
				t.recoveries++
			}
			t.available += c.Availability
			continue
		}
		if r.res.Recovered && r.res.RecoveryTime > 0 {
			t.recovery += r.res.RecoveryTime
			t.recoveries++
		}
		if !r.res.SystemFailure {
			t.available++
		}
	}
}

// recoveryMean is the mean simulated recovery time in seconds: the
// pooled down intervals (MTTR) of chaos trials, otherwise the recovery
// time of every trial whose target was recovered.
func (t *tally) recoveryMean() float64 {
	if t.recoveries == 0 {
		return 0
	}
	return t.recovery.Seconds() / float64(t.recoveries)
}

// availability is the mean beat availability of chaos trials, and for
// one-shot trials the share that ended without a system failure.
func (t *tally) availability() float64 { return t.available / float64(t.trials) }

// processCPU is the process's user plus system CPU time so far, all
// threads. It is the benchmark's host time: the machine the bounds were
// set on is a shared virtual machine whose steal time moves wall-clock
// figures by a quarter from one minute to the next, and CPU time moves
// far less. Wall time is printed alongside. The reported host times are
// scaled by the host's pace (pace.go).
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// allocCounts are the process's cumulative heap allocations.
type allocCounts struct{ objects, bytes uint64 }

var allocMetrics = []string{"/gc/heap/allocs:objects", "/gc/heap/tiny/allocs:objects", "/gc/heap/allocs:bytes"}

// readAllocs reads the cumulative allocation counters without stopping
// the world; tiny allocations are counted as objects, as MemStats does.
func readAllocs() allocCounts {
	s := make([]metrics.Sample, len(allocMetrics))
	for i, n := range allocMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	return allocCounts{objects: s[0].Value.Uint64() + s[1].Value.Uint64(), bytes: s[2].Value.Uint64()}
}

// heapSampler tracks the peak of heap object bytes (live and not yet
// swept), sampled every heapSampleEvery.
type heapSampler struct {
	stopCh chan struct{}
	wg     sync.WaitGroup
	peak   atomic.Uint64
}

const heapSampleEvery = 2 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopCh: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			metrics.Read(s)
			v := s[0].Value.Uint64()
			for old := h.peak.Load(); v > old && !h.peak.CompareAndSwap(old, v); old = h.peak.Load() {
			}
			select {
			case <-h.stopCh:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// take returns the peak since the last take and starts a new one.
func (h *heapSampler) take() uint64 { return h.peak.Swap(0) }

// stop ends sampling.
func (h *heapSampler) stop() {
	close(h.stopCh)
	h.wg.Wait()
}

// quantile is the q-quantile of xs by linear interpolation between the
// closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
