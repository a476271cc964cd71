package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"reesift/internal/inject"
)

// benchmarkSpec is the part of ../BENCHMARK.json the smoke tests check
// the output against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("reading BENCHMARK.json: %v", err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatalf("parsing BENCHMARK.json: %v", err)
	}
	return spec
}

// checkMetrics demands exactly the named metrics, each with its unit.
func checkMetrics(t *testing.T, got map[string]metric, want []metricSpec) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(got), len(want))
	}
	for _, m := range want {
		g, ok := got[m.Name]
		if !ok {
			t.Errorf("metric %s not printed", m.Name)
			continue
		}
		if g.Unit != m.Unit {
			t.Errorf("metric %s: unit %q, want %q", m.Name, g.Unit, m.Unit)
		}
	}
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// the printed metrics against BENCHMARK.json, the correctness verdict,
// and that the behaviour fingerprint repeats across the two runs.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	for _, wl := range spec.Workloads {
		if workloads[wl.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s not implemented", wl.Name)
		}
	}
	for _, name := range workloadNames() {
		w := workloads[name]
		t.Run(name, func(t *testing.T) {
			if testing.Short() && w.name == "scale-wide" {
				t.Skip("a 400-node trial takes seconds")
			}
			e2e, err := runEndToEnd(w, 7, time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if len(e2e.problems) > 0 || e2e.Failed > 0 {
				t.Fatalf("untraced run incorrect: failed %d, %v", e2e.Failed, e2e.problems)
			}
			checkMetrics(t, e2e.Metrics, spec.EndToEnd)
			for name, m := range e2e.Metrics {
				if m.Value == 0 {
					t.Errorf("end-to-end metric %s is 0", name)
				}
			}

			tr, err := runTraced(w, 7, time.Millisecond, t.TempDir()+"/spans.jsonl")
			if err != nil {
				t.Fatal(err)
			}
			if len(tr.problems) > 0 || tr.Failed > 0 {
				t.Fatalf("traced run incorrect: failed %d, %v", tr.Failed, tr.problems)
			}
			checkMetrics(t, tr.Metrics, spec.PerLayer)
			if e2e.fingerprint != tr.fingerprint {
				t.Errorf("fingerprint %016x untraced run, %016x traced run", e2e.fingerprint, tr.fingerprint)
			}
		})
	}
}

// TestSeedChangesFingerprint guards against a fingerprint that ignores
// its input.
func TestSeedChangesFingerprint(t *testing.T) {
	w := workloads["chaos-day"]
	a, err := w.run(1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.run(2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(a) == fingerprint(b) {
		t.Errorf("seeds 1 and 2 share fingerprint %016x", fingerprint(a))
	}
}

// TestFingerprintCoversChaos checks that the system-failure verdict and
// every chaos statistic the benchmark reports feed the fingerprint.
func TestFingerprintCoversChaos(t *testing.T) {
	trial := func(edit func(*inject.Result)) uint64 {
		r := inject.Result{Chaos: &inject.ChaosStats{Arrivals: 3, Downs: 1, Down: []time.Duration{time.Second}, Downtime: time.Second, Availability: 0.9}}
		edit(&r)
		return fingerprint([]trialRecord{{res: r}})
	}
	base := trial(func(*inject.Result) {})
	edits := map[string]func(*inject.Result){
		"SystemFailure": func(r *inject.Result) { r.SystemFailure = true },
		"Arrivals":      func(r *inject.Result) { r.Chaos.Arrivals++ },
		"Down":          func(r *inject.Result) { r.Chaos.Down[0] = 2 * time.Second },
		"Availability":  func(r *inject.Result) { r.Chaos.Availability = 0.8 },
		"Unrecoverable": func(r *inject.Result) { r.Chaos.Unrecoverable = true },
	}
	for name, edit := range edits {
		if trial(edit) == base {
			t.Errorf("changing %s leaves the fingerprint at %016x", name, base)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	l := newSpanLog()
	l.spans = []span{
		{Name: "cell", Start: 0, End: 100, Parent: -1},
		{Name: "trial", Start: 10, End: 60, Parent: 0},
		{Name: "trial", Start: 40, End: 90, Parent: 0}, // overlaps the first
		{Name: "run", Start: 20, End: 50, Parent: 1},
	}
	self, total := l.times()
	if got := self["cell"]; got != 20 {
		t.Errorf("cell self time %d, want 20 (children cover 10..90)", got)
	}
	if got := self["trial"]; got != 20+50 {
		t.Errorf("trial self time %d, want 70", got)
	}
	if got := self["run"]; got != 30 {
		t.Errorf("run self time %d, want 30", got)
	}
	if got := total["trial"]; got != 100 {
		t.Errorf("trial total time %d, want 100", got)
	}
}

func TestBucketStack(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.mallocgc", "reesift/internal/core.(*Checkpoint).Update"}, "runtime_mem"},
		{[]string{"runtime.futex", "runtime.lock2", "runtime.chansend", "reesift/internal/sim.(*Kernel).dispatch"}, "runtime_sched"},
		{[]string{"runtime.mapaccess2", "reesift/internal/core.(*commState).snapshot"}, "core"},
		{[]string{"sort.insertionSort", "sort.Strings", "reesift/internal/core.(*commState).snapshot"}, "core"},
		{[]string{"math.Sin", "reesift/internal/fft.FFT"}, "apps"},
		{[]string{"math.Exp", "math/rand.(*Rand).ExpFloat64", "reesift/internal/chaos.(*driver).gap"}, "inject"},
		{[]string{"reesift/internal/fft.FFT"}, "apps"},
		{[]string{"reesift/internal/apps/rover.kmeans"}, "apps"},
		{[]string{"reesift/internal/sift.(*Daemon).Run"}, "sift"},
		{[]string{"reesift/internal/inject.(*Runner).finish"}, "inject"},
		{[]string{"runtime.gcBgMarkWorker"}, "runtime_mem"},
		{[]string{"main.main"}, "other"},
	}
	for _, c := range cases {
		if got := bucketStack(c.frames); got != c.want {
			t.Errorf("bucketStack(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}

// TestPaceKernel checks that the calibration kernel does a fixed amount
// of work and that calibrate times it.
func TestPaceKernel(t *testing.T) {
	if a, b := paceKernel(), paceKernel(); a != b {
		t.Errorf("kernel results differ: %v then %v", a, b)
	}
	if cpu, wall := calibrate(2); cpu <= 0 || wall <= 0 {
		t.Errorf("calibrate measured %v CPU per copy, %v wall", cpu, wall)
	}
}
