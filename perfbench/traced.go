package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"reesift/internal/campaign"
	"reesift/internal/core"
	"reesift/internal/inject"
	"reesift/internal/sift"
	"reesift/internal/sim"
)

// The traced run measures the layers. It alternates an untraced pass
// (the public entry point, timed as a whole) with a traced pass over the
// same reference batches, driven through the inject.Runner lifecycle
// with a span around every call into a layer. Both passes must produce
// the same behaviour fingerprint; the traced pass also runs Kernel().Run
// in slices, so the check catches any perturbation. A trial whose Runner
// is sealed (chaos) runs through its public call inside one span, so it
// yields trial time, events, allocations and CPU shares only. A CPU
// profile covers the traced passes only. A final one-worker pass takes
// per-phase allocation counts from runtime.MemStats deltas.

// drillReps is how often the checkpoint drill repeats per ARMOR.
const drillReps = 5

// layerStats accumulates the traced pass's per-trial observations.
type layerStats struct {
	mu          sync.Mutex
	trials      int
	events      uint64
	messages    uint64
	queueMax    int
	liveMax     int
	commits     int
	updates     int
	ckptBytes   int
	detections  int
	recoveries  int
	logEntries  int
	armors      int
	commitTime  time.Duration
	restoreTime time.Duration
	drillErrs   []string
	// campaign engine: trial host time, worker-time capacity, tail idle.
	busy, capacity, tailIdle time.Duration
	cells                    int
}

func runTraced(w *workload, seed int64, budget time.Duration, spansPath string) (*outcome, error) {
	out := &outcome{report: report{Metrics: make(map[string]metric)}}
	if err := w.setup(seed); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	spans := newSpanLog()
	stats := &layerStats{}
	prof := newCPUProfile()
	var plain, traced time.Duration
	var plainRecs []trialRecord
	var want uint64
	start := time.Now()
	for rep := 0; rep == 0 || time.Since(start) < budget; rep++ {
		t0 := time.Now()
		var recs []trialRecord
		for b := 0; b < w.refBatches; b++ {
			r, err := w.run(seed, b, w.workers)
			if err != nil {
				return nil, fmt.Errorf("untraced batch %d: %w", b, err)
			}
			recs = append(recs, r...)
		}
		plain += time.Since(t0)
		fpPlain := fingerprint(recs)

		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		t1 := time.Now()
		var trecs []trialRecord
		for b := 0; b < w.refBatches; b++ {
			r, err := tracedBatch(w, seed, b, spans, stats)
			if err != nil {
				pprof.StopCPUProfile()
				return nil, fmt.Errorf("traced batch %d: %w", b, err)
			}
			trecs = append(trecs, r...)
		}
		traced += time.Since(t1)
		pprof.StopCPUProfile()
		if err := prof.add(buf.Bytes()); err != nil {
			return nil, err
		}
		fpTraced := fingerprint(trecs)

		if rep == 0 {
			want = fpPlain
			out.fingerprint = fpPlain
			plainRecs = recs
			fmt.Printf("fingerprint %s seed %d: %016x (untraced), %016x (traced)\n", w.name, seed, fpPlain, fpTraced)
		}
		out.Attempted += len(recs) + len(trecs)
		judge(w, append(recs, trecs...), out)
		if fpPlain != want || fpTraced != want {
			out.fail("behaviour fingerprint differs in repetition %d: untraced %016x, traced %016x, first %016x", rep, fpPlain, fpTraced, want)
		}
	}
	for _, e := range stats.drillErrs {
		out.fail("checkpoint drill: %s", e)
	}
	allocs, err := allocPass(w, seed)
	if err != nil {
		return nil, err
	}
	if err := spans.writeJSONL(spansPath); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}

	self, total := spans.times()
	n := float64(stats.trials)
	perTrial := func(d time.Duration, unit time.Duration) float64 { return float64(d) / float64(unit) / n }
	fmt.Printf("traced: %d trials, %d spans written to %s\n", stats.trials, len(spans.spans), spansPath)

	out.set("campaign.busy_share", float64(stats.busy)/float64(stats.capacity), "fraction")
	out.set("campaign.tail_idle_ms", float64(stats.tailIdle)/float64(time.Millisecond)/float64(stats.cells), "ms")
	out.set("inject.trial_ms", perTrial(total["inject.trial"], time.Millisecond), "ms")
	out.set("inject.new_us", perTrial(self["inject.new"], time.Microsecond), "us")
	out.set("inject.deploy_us", perTrial(self["inject.deploy"], time.Microsecond), "us")
	out.set("inject.run_ms", perTrial(self["inject.run"], time.Millisecond), "ms")
	out.set("inject.finish_us", perTrial(self["inject.finish"], time.Microsecond), "us")
	out.set("inject.shutdown_us", perTrial(self["inject.shutdown"], time.Microsecond), "us")
	for _, ph := range allocPhases {
		out.set("inject.allocs."+ph, allocs[ph], "count")
	}
	out.set("sim.events", float64(stats.events)/n, "count")
	out.set("sim.messages", float64(stats.messages)/n, "count")
	out.set("sim.ns_per_event", float64(self["inject.run"]+self["chaos.trial"])/float64(stats.events), "ns")
	out.set("sim.queue_depth_max", float64(stats.queueMax), "count")
	out.set("sim.live_procs_max", float64(stats.liveMax), "count")
	out.set("core.commits", float64(stats.commits)/n, "count")
	out.set("core.updates", float64(stats.updates)/n, "count")
	out.set("core.ckpt_bytes", float64(stats.ckptBytes)/n, "bytes")
	drills := float64(max(stats.armors*drillReps, 1))
	out.set("core.commit_us", float64(stats.commitTime)/float64(time.Microsecond)/drills, "us")
	out.set("core.restore_us", float64(stats.restoreTime)/float64(time.Microsecond)/drills, "us")
	out.set("sift.detections", float64(stats.detections)/n, "count")
	out.set("sift.recoveries", float64(stats.recoveries)/n, "count")
	out.set("sift.log_entries", float64(stats.logEntries)/n, "count")
	out.set("sift.system_failure_share", systemFailureShare(plainRecs), "fraction")
	var arrivals, downs float64
	for _, t := range plainRecs {
		if c := t.res.Chaos; c != nil {
			arrivals += float64(c.Arrivals)
			downs += float64(c.Downs)
		}
	}
	out.set("chaos.arrivals", arrivals/float64(len(plainRecs)), "count")
	out.set("chaos.down_intervals", downs/float64(len(plainRecs)), "count")
	for _, b := range cpuBuckets {
		out.set("cpu."+b, prof.share(b), "fraction")
	}
	out.set("trace.overhead", traced.Seconds()/plain.Seconds(), "ratio")
	return out, nil
}

// systemFailureShare is the share of trials that ended in a system
// failure (for chaos trials: unrecoverable).
func systemFailureShare(recs []trialRecord) float64 {
	n := 0
	for _, t := range recs {
		if t.res.SystemFailure {
			n++
		}
	}
	return float64(n) / float64(len(recs))
}

// tracedBatch runs batch b's cells through campaign.Map with timed trial
// functions, in cell order, and returns the records in seed order.
func tracedBatch(w *workload, seed int64, b int, spans *spanLog, st *layerStats) ([]trialRecord, error) {
	var recs []trialRecord
	for _, cell := range w.cells(seed, b) {
		workers := min(campaign.Workers(w.workers), len(cell.trials))
		cs := spans.begin("campaign.cell", -1, -1)
		cellStart := time.Now()
		ends := make([]time.Time, len(cell.trials))
		errs := make([]error, len(cell.trials))
		res := campaign.Map(w.workers, len(cell.trials), func(run int) trialRecord {
			t0 := time.Now()
			r, err := runTracedTrial(cell.trials[run], w.slice, spans, cs, st)
			r.cell = cell.name
			ends[run] = time.Now()
			r.wall = ends[run].Sub(t0)
			errs[run] = err
			return r
		})
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		cellEnd := time.Now()
		spans.end(cs)
		// Each worker's last trial is among the last `workers` to end.
		sort.Slice(ends, func(i, j int) bool { return ends[i].After(ends[j]) })
		st.mu.Lock()
		for _, e := range ends[:workers] {
			st.tailIdle += cellEnd.Sub(e)
		}
		for _, r := range res {
			st.busy += r.wall
		}
		st.capacity += time.Duration(workers) * cellEnd.Sub(cellStart)
		st.cells++
		st.mu.Unlock()
		recs = append(recs, res...)
	}
	return recs, nil
}

// runTracedTrial runs one trial on the Runner lifecycle with a span per
// phase, samples the kernel between Run slices, reads the layer counters
// and runs the checkpoint drill. A sealed trial runs whole, in one span.
func runTracedTrial(tt tracedTrial, slice time.Duration, spans *spanLog, parent int, st *layerStats) (trialRecord, error) {
	id := spans.newTrial()
	ts := spans.begin("inject.trial", parent, id)
	if tt.sealed != nil {
		s := spans.begin("chaos.trial", ts, id)
		res, err := tt.sealed()
		spans.end(s)
		spans.end(ts)
		st.mu.Lock()
		defer st.mu.Unlock()
		st.trials++
		st.events += res.EventsFired
		return trialRecord{res: res}, err
	}

	s := spans.begin("inject.new", ts, id)
	r := inject.NewRunner(tt.cfg)
	spans.end(s)

	s = spans.begin("inject.deploy", ts, id)
	handles := r.Deploy()
	spans.end(s)

	s = spans.begin("inject.run", ts, id)
	k := r.Kernel()
	queueMax, liveMax := runSliced(k, r.RunConfig().Timeout, slice)
	spans.end(s)

	s = spans.begin("inject.finish", ts, id)
	r.Finish(handles)
	r.Record()
	spans.end(s)
	messages := k.MessagesSent()

	s = spans.begin("inject.shutdown", ts, id)
	k.Shutdown()
	spans.end(s)
	spans.end(ts)

	rec := trialRecord{res: *r.Result()}
	env := r.Env()
	armors := reachableArmors(env, r.RunConfig().Apps)
	s = spans.begin("core.drill", -1, id)
	commitT, restoreT, drillErr := checkpointDrill(armors)
	spans.end(s)

	st.mu.Lock()
	defer st.mu.Unlock()
	st.trials++
	st.events += rec.res.EventsFired
	st.messages += messages
	st.queueMax = max(st.queueMax, queueMax)
	st.liveMax = max(st.liveMax, liveMax)
	for _, a := range armors {
		c := a.Checkpoint()
		st.commits += c.Commits()
		st.updates += c.Updates()
		st.ckptBytes += c.StableSize()
	}
	st.armors += len(armors)
	st.commitTime += commitT
	st.restoreTime += restoreT
	if drillErr != nil {
		st.drillErrs = append(st.drillErrs, drillErr.Error())
	}
	st.detections += len(env.Log.Detections) + len(env.Log.AppDetections)
	st.recoveries += len(env.Log.Recoveries) + len(env.Log.AppRecoveries)
	st.logEntries += len(env.Log.Entries)
	return rec, nil
}

// runSliced runs the kernel to limit in windows of slice, sampling the
// event-queue depth and live process count between windows. It stops
// where one Run(limit) call would: at Stop, at an empty queue, or at
// the limit.
func runSliced(k *sim.Kernel, limit, slice time.Duration) (queueMax, liveMax int) {
	for at := slice; ; at += slice {
		at = min(at, limit)
		k.Run(at)
		queueMax = max(queueMax, k.QueueDepth())
		liveMax = max(liveMax, k.LiveProcs())
		if k.Stopped() || k.Idle() || at >= limit {
			return queueMax, liveMax
		}
	}
}

// reachableArmors lists the trial's FTM, Heartbeat and Execution ARMORs
// (their latest incarnations).
func reachableArmors(env *sift.Environment, apps []*sift.AppSpec) []*core.Armor {
	var out []*core.Armor
	add := func(aid core.AID) {
		if a := env.ArmorOf(aid); a != nil {
			out = append(out, a)
		}
	}
	add(sift.AIDFTM)
	add(sift.AIDHeartbeat)
	for _, app := range apps {
		for rank := 0; rank < app.Ranks; rank++ {
			add(sift.AIDExec(app.ID, rank))
		}
	}
	return out
}

// checkpointDrill times the microcheckpoint path on each ARMOR's real
// post-trial element states, against a scratch checkpoint: Snapshot ->
// Checkpoint.Update -> Commit, then Load -> Restore. Outside the timed
// parts it checks that the restore brought the committed state back:
// every loaded region must hold the bytes its element snapshotted, and
// every heap field an element exposes is perturbed between the commit
// and the restore and must read back its committed value afterwards.
func checkpointDrill(armors []*core.Armor) (commit, restore time.Duration, err error) {
	fail := func(format string, args ...any) {
		if err == nil {
			err = fmt.Errorf(format, args...)
		}
	}
	for _, a := range armors {
		ck := core.NewCheckpoint(sim.NewFS(), "drill")
		els := a.Elements()
		want := make([][]byte, len(els))
		for rep := 0; rep < drillReps; rep++ {
			for i, el := range els {
				want[i] = bytes.Clone(el.Snapshot())
			}
			t0 := time.Now()
			for _, el := range els {
				ck.Update(el.Name(), el.Snapshot())
			}
			ck.Commit()
			t1 := time.Now()
			fields := heapFields(els)
			for _, f := range fields {
				f.Set(f.Get() ^ 1)
			}
			t2 := time.Now()
			if _, lerr := ck.Load(); lerr != nil {
				fail("ARMOR %v: load: %w", a.ID(), lerr)
			}
			for _, el := range els {
				if rerr := el.Restore(ck.Region(el.Name())); rerr != nil {
					fail("ARMOR %v element %s: restore: %w", a.ID(), el.Name(), rerr)
				}
			}
			t3 := time.Now()
			commit += t1.Sub(t0)
			restore += t3.Sub(t2)
			for i, el := range els {
				if !bytes.Equal(ck.Region(el.Name()), want[i]) {
					fail("ARMOR %v element %s: loaded region differs from the committed snapshot", a.ID(), el.Name())
				}
			}
			after := heapFields(els)
			if len(after) != len(fields) {
				fail("ARMOR %v: %d heap fields before the restore, %d after", a.ID(), len(fields), len(after))
				continue
			}
			for i, f := range after {
				if f.Name != fields[i].Name || f.Get() != fields[i].value {
					fail("ARMOR %v heap field %s: restored value %#x, committed %#x", a.ID(), f.Name, f.Get(), fields[i].value)
				}
			}
		}
	}
	return commit, restore, err
}

// drillField is a heap field with the value it had when read.
type drillField struct {
	core.HeapField
	value uint64
}

// heapFields reads the heap fields of the elements that expose them.
func heapFields(els []core.Element) []drillField {
	var out []drillField
	for _, el := range els {
		if h, ok := el.(core.HeapInjectable); ok {
			for _, f := range h.HeapFields() {
				out = append(out, drillField{HeapField: f, value: f.Get()})
			}
		}
	}
	return out
}

// allocPhases are the Runner lifecycle phases the allocation pass
// separates, and the whole trial.
var allocPhases = []string{"new", "deploy", "run", "finish", "shutdown", "trial"}

// allocPass runs the reference batches' trials on one worker, unsliced
// and untraced, and returns the mean heap allocations per trial in each
// lifecycle phase and in the whole trial (runtime.MemStats deltas; the
// counters are process-wide, hence one worker). A sealed trial has no
// phases; it counts in the whole-trial figure only.
func allocPass(w *workload, seed int64) (map[string]float64, error) {
	totals := make(map[string]uint64)
	n := 0
	var ms runtime.MemStats
	mark := func() uint64 {
		runtime.ReadMemStats(&ms)
		return ms.Mallocs
	}
	for b := 0; b < w.refBatches; b++ {
		for _, cell := range w.cells(seed, b) {
			for _, tt := range cell.trials {
				n++
				if tt.sealed != nil {
					m0 := mark()
					if _, err := tt.sealed(); err != nil {
						return nil, fmt.Errorf("allocation pass: %w", err)
					}
					totals["trial"] += mark() - m0
					continue
				}
				m0 := mark()
				r := inject.NewRunner(tt.cfg)
				m1 := mark()
				handles := r.Deploy()
				m2 := mark()
				r.Kernel().Run(r.RunConfig().Timeout)
				m3 := mark()
				r.Finish(handles)
				r.Record()
				m4 := mark()
				r.Kernel().Shutdown()
				m5 := mark()
				totals["new"] += m1 - m0
				totals["deploy"] += m2 - m1
				totals["run"] += m3 - m2
				totals["finish"] += m4 - m3
				totals["shutdown"] += m5 - m4
				totals["trial"] += m5 - m0
			}
		}
	}
	out := make(map[string]float64, len(allocPhases))
	for _, ph := range allocPhases {
		out[ph] = float64(totals[ph]) / float64(n)
	}
	return out, nil
}
