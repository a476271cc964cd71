package main

import (
	"fmt"
	"time"

	"reesift/internal/apps/rover"
	"reesift/internal/campaign"
	"reesift/internal/inject"
	"reesift/internal/sift"
	"reesift/internal/sim"
	"reesift/pkg/reesift"
)

// A workload is a closed loop of batches run from one process. A batch
// is the unit the timed loop repeats: one campaign (oneshot-campaign) or
// one trial (chaos-day, scale-wide). Every batch is a pure function of
// (workload seed, batch index), run either through the public entry
// point (run) or, for the traced run, as the same trials on the
// inject.Runner lifecycle (cells) where the Runner is reachable.
type workload struct {
	name string
	// workers is the campaign worker count. A multi-worker timed loop
	// alternates it with one-worker batches (batchWorkers), whose trials
	// run alone and so give per-trial host times.
	workers int
	// refBatches is the fixed prefix of batches the fingerprint covers
	// and the traced run repeats.
	refBatches int
	// slice is the Kernel().Run window of the traced run; queue depth
	// and live processes are sampled between windows.
	slice time.Duration
	// setup runs one set-up repetition: spec build, validation and a
	// fixed warm-up. The warm-up's trials come from a seed stream that
	// does not depend on the workload seed, so every run sets up the
	// same work and setup_s measures set-up, not the seed's draw.
	setup func(seed int64) error
	// run executes batch b through the public API.
	run func(seed int64, b, workers int) ([]trialRecord, error)
	// cells builds batch b's trials for the Runner lifecycle, grouped
	// into campaign cells in run order.
	cells func(seed int64, b int) []tracedCell
	// check returns the workload invariant a trial broke ("" if none);
	// such a trial counts as failed.
	check func(t trialRecord) string
	// verify, when set, returns what is wrong with a trial's output (""
	// if nothing); wrong output makes the whole run incorrect.
	verify func(t trialRecord) string
}

// trialRecord is one finished trial.
type trialRecord struct {
	cell string
	res  inject.Result
	// cpu is the process CPU time spent while the trial ran: the
	// trial's own cost when it ran alone (one worker). wall is its wall
	// time, kept by the traced run.
	cpu, wall time.Duration
}

// tracedCell is one campaign cell of a traced batch.
type tracedCell struct {
	name   string
	trials []tracedTrial
}

// tracedTrial is one trial: a Runner configuration, or, for a trial
// whose Runner is sealed inside the program (chaos.Trial), the public
// call that runs it whole.
type tracedTrial struct {
	cfg    inject.Config
	sealed func() (inject.Result, error)
}

var workloads = map[string]*workload{}

func register(w *workload) { workloads[w.name] = w }

func init() {
	register(oneshotWorkload())
	register(chaosWorkload())
	register(scaleWorkload())
}

// batchWorkers is the worker count of timed batch b: workers on even
// batches, one on odd ones.
func (w *workload) batchWorkers(b int) int {
	if b%2 == 1 {
		return 1
	}
	return w.workers
}

// batchSeed derives a batch's base seed from the workload seed.
func batchSeed(seed int64, workload string, b int) int64 {
	return campaign.DeriveSeed(seed, "perfbench/"+workload, b)
}

// warmupSeed is the seed of a workload's set-up warm-up: the same on
// every run.
func warmupSeed(workload string) int64 {
	return campaign.DeriveSeed(0, "perfbench/"+workload+"/warm-up", 0)
}

// ---- oneshot-campaign ------------------------------------------------

// oneshotRunsPerCell is each cell's run count in one campaign batch.
const oneshotRunsPerCell = 8

// oneshotCell is one cell of the paper-style campaign.
type oneshotCell struct {
	name   string
	model  inject.Model
	target inject.TargetKind
}

// oneshotCells: a baseline, {SIGINT, SIGSTOP} x the paper's four
// targets (Table 4), and blind heap injection into the FTM (Table 7).
func oneshotCells() []oneshotCell {
	cells := []oneshotCell{{name: "baseline"}}
	for _, m := range []inject.Model{inject.ModelSIGINT, inject.ModelSIGSTOP} {
		for _, t := range []inject.TargetKind{inject.TargetApp, inject.TargetFTM, inject.TargetExecArmor, inject.TargetHeartbeat} {
			cells = append(cells, oneshotCell{name: m.String() + "/" + t.String(), model: m, target: t})
		}
	}
	return append(cells, oneshotCell{name: "heap/FTM", model: inject.ModelHeap, target: inject.TargetFTM})
}

// roverReference computes the texture-analysis reference features the
// output verdict compares against.
func roverReference() ([][]float64, error) {
	p := rover.DefaultParams()
	ref, _, err := rover.Analyze(rover.GenerateImage(p.ImageSize, p.Seed), p.Clusters)
	return ref, err
}

// roverVerdict classifies app 1's output on the shared store.
func roverVerdict(ref [][]float64) func(fs *sim.FS) string {
	tol := rover.DefaultParams().Tolerance
	return func(fs *sim.FS) string { return rover.Verify(fs, 1, ref, tol).String() }
}

// oneshotCampaign builds batch b as a public campaign.
func oneshotCampaign(seed int64, b, runs, workers int, verdict func(*sim.FS) string) reesift.Campaign {
	c := reesift.Campaign{Name: "oneshot-campaign", Seed: batchSeed(seed, "oneshot-campaign", b), Workers: workers}
	for _, cell := range oneshotCells() {
		c.Cells = append(c.Cells, reesift.CampaignCell{
			Name: cell.name,
			Runs: runs,
			Injection: reesift.Injection{
				Model:        cell.model,
				Target:       cell.target,
				Apps:         []*reesift.AppSpec{reesift.RoverApp(1)},
				CheckVerdict: verdict,
			},
		})
	}
	return c
}

// runCampaign runs a campaign and records the process CPU time from each
// trial's Observer start to its (seed-ordered) result delivery.
func runCampaign(c reesift.Campaign) ([]trialRecord, error) {
	type key struct {
		cell string
		run  int
	}
	started := make(map[key]time.Duration)
	var recs []trialRecord
	c.Observer = &reesift.Observer{
		OnStart: func(ref reesift.RunRef) { started[key{ref.Cell, ref.Run}] = processCPU() },
		OnResult: func(ref reesift.RunRef, r reesift.InjectionResult) {
			recs = append(recs, trialRecord{cell: ref.Cell, res: r, cpu: processCPU() - started[key{ref.Cell, ref.Run}]})
		},
	}
	if _, err := c.Run(); err != nil {
		return nil, err
	}
	return recs, nil
}

func oneshotWorkload() *workload {
	var verdict func(*sim.FS) string
	w := &workload{name: "oneshot-campaign", workers: 2, refBatches: 3, slice: 5 * time.Second}
	w.setup = func(seed int64) error {
		ref, err := roverReference()
		if err != nil {
			return err
		}
		verdict = roverVerdict(ref)
		// Warm-up: two runs per cell.
		_, err = runCampaign(oneshotCampaign(warmupSeed(w.name), 0, 2, w.workers, verdict))
		return err
	}
	w.run = func(seed int64, b, workers int) ([]trialRecord, error) {
		return runCampaign(oneshotCampaign(seed, b, oneshotRunsPerCell, workers, verdict))
	}
	w.cells = func(seed int64, b int) []tracedCell {
		base := batchSeed(seed, w.name, b)
		var cells []tracedCell
		for _, cell := range oneshotCells() {
			tc := tracedCell{name: cell.name}
			for run := 0; run < oneshotRunsPerCell; run++ {
				tc.trials = append(tc.trials, tracedTrial{cfg: inject.Config{
					Seed:         campaign.DeriveSeed(base, w.name+"/"+cell.name, run),
					Model:        cell.model,
					Target:       cell.target,
					Apps:         []*sift.AppSpec{reesift.RoverApp(1)},
					CheckVerdict: verdict,
				}})
			}
			cells = append(cells, tc)
		}
		return cells
	}
	w.check = func(t trialRecord) string {
		r := t.res
		switch {
		case t.cell == "baseline" && (r.Injected != 0 || r.Failed):
			return "baseline trial saw a failure"
		case r.Failed && r.Class == inject.ClassNone:
			return "failure left unclassified"
		case !r.Done && !r.SystemFailure:
			return "incomplete application not classified as a system failure"
		}
		return ""
	}
	w.verify = func(t trialRecord) string {
		if t.res.Done && t.res.Verdict != "correct" {
			return fmt.Sprintf("completed application output is %q", t.res.Verdict)
		}
		return ""
	}
	return w
}

// ---- chaos-day -----------------------------------------------------------

// The chaos-day trial is BenchmarkChaosSimDay's: one simulated day of
// Poisson SIGINT arrivals (mean 4 min apart) into the Execution ARMOR,
// with the relay service installed. Its Runner is sealed inside
// chaos.Trial, so the traced run times it whole.
const (
	chaosHorizon     = 24 * time.Hour
	chaosMeanBetween = 4 * time.Minute
	chaosWarmup      = 6 * time.Hour
)

func chaosInjection(seed int64, horizon time.Duration) reesift.Injection {
	return reesift.Injection{
		Model:  reesift.ModelSIGINT,
		Target: reesift.TargetExecArmor,
		Seed:   seed,
		Arrival: &reesift.Arrival{
			Process:     reesift.ArrivalPoisson,
			Horizon:     horizon,
			MeanBetween: chaosMeanBetween,
		},
	}
}

// runInjection runs one public injection and records its CPU time.
func runInjection(inj reesift.Injection) (trialRecord, error) {
	cpu := processCPU()
	r, err := inj.Run()
	if err != nil {
		return trialRecord{}, err
	}
	return trialRecord{res: r, cpu: processCPU() - cpu}, nil
}

func chaosWorkload() *workload {
	w := &workload{name: "chaos-day", workers: 1, refBatches: 1}
	w.setup = func(int64) error {
		_, err := runInjection(chaosInjection(warmupSeed(w.name), chaosWarmup))
		return err
	}
	w.run = func(seed int64, b, _ int) ([]trialRecord, error) {
		t, err := runInjection(chaosInjection(batchSeed(seed, w.name, b), chaosHorizon))
		return []trialRecord{t}, err
	}
	w.cells = func(seed int64, b int) []tracedCell {
		inj := chaosInjection(batchSeed(seed, w.name, b), chaosHorizon)
		return []tracedCell{{trials: []tracedTrial{{sealed: inj.Run}}}}
	}
	w.check = func(t trialRecord) string {
		switch c := t.res.Chaos; {
		case c == nil:
			return "trial carries no chaos statistics"
		case c.Arrivals == 0:
			return "chaos trial recorded no arrivals"
		case t.res.SimTime != chaosHorizon:
			return fmt.Sprintf("chaos trial stopped at %v, before its %v horizon", t.res.SimTime, chaosHorizon)
		}
		return ""
	}
	return w
}

// ---- scale-wide ------------------------------------------------------------

// The scale-wide trial is the scale scenario's 400-node cell: 20
// synthetic applications x 26 ranks (520 Execution ARMORs), spread
// placement, scoped broadcast, daemon rebind, shared checkpoints, 30 s
// heartbeats and one node crash during the first half of the work.
const (
	scaleNodes    = 400
	scaleApps     = 20
	scaleRanks    = 26
	scaleBeats    = 10
	scalePIPeriod = 20 * time.Second
	scaleSubmitAt = 30 * time.Second
)

func scaleNodeNames() []string {
	names := make([]string, scaleNodes)
	for i := range names {
		names[i] = fmt.Sprintf("n%d", i+1)
	}
	return names
}

// scaleAppSpecs builds the synthetic applications: every rank announces
// a progress indicator, beats it scaleBeats times and exits.
func scaleAppSpecs() []*sift.AppSpec {
	names := scaleNodeNames()
	apps := make([]*sift.AppSpec, scaleApps)
	for i := range apps {
		spec := &sift.AppSpec{
			ID:              sift.AppID(i + 1),
			Name:            fmt.Sprintf("scale-%d", i+1),
			Ranks:           scaleRanks,
			Nodes:           []string{names[1+(2*i)%(len(names)-1)], names[1+(2*i+1)%(len(names)-1)]},
			PIPeriod:        scalePIPeriod,
			MPIStartTimeout: 10 * time.Second,
		}
		spec.Launcher = func(ac *sift.AppContext) { scaleRank(ac, spec) }
		apps[i] = spec
	}
	return apps
}

func scaleRank(ac *sift.AppContext, spec *sift.AppSpec) {
	if ac.Rank == 0 {
		for r := 1; r < spec.Ranks; r++ {
			pid := ac.SpawnRank("", r)
			ac.SendPIDs(map[int]sim.PID{r: pid})
		}
	} else if !ac.WaitChannelOpen(2 * time.Minute) {
		ac.Proc.Exit(3, "channel open timeout")
	}
	ac.PICreate(scalePIPeriod)
	for i := 1; i <= scaleBeats; i++ {
		ac.Proc.Sleep(scalePIPeriod)
		ac.Step()
		ac.Progress(uint64(i))
	}
	ac.NotifyExiting()
}

// scaleWork is the applications' fault-free work; the crash is drawn
// in its first half, and the timeout covers a full redo.
const scaleWork = scaleBeats * scalePIPeriod

func scaleInjection(seed int64, timeout time.Duration) reesift.Injection {
	return reesift.Injection{
		Seed:   seed,
		Model:  reesift.ModelNodeCrash,
		Target: reesift.TargetExecArmor,
		Apps:   scaleAppSpecs(),
		Cluster: []reesift.Option{
			reesift.WithNodes(scaleNodes),
			reesift.WithSpreadPlacement(),
			reesift.WithScopedLocationBroadcast(),
			reesift.WithDaemonRebind(),
			reesift.WithSharedCheckpoints(),
			reesift.WithHeartbeatPeriod(30 * time.Second),
			reesift.WithDaemonAYAPeriod(30 * time.Second),
			reesift.WithSCCCommandDelay(2 * time.Millisecond),
		},
		SubmitAt:         scaleSubmitAt,
		Window:           scaleWork / 2,
		NodeRestartAfter: 60 * time.Second,
		Timeout:          timeout,
	}
}

const scaleTimeout = scaleSubmitAt + 2*scaleWork + 8*time.Minute

// scaleConfig is the Runner configuration scaleInjection resolves to:
// the cluster options above applied to the default environment.
func scaleConfig(seed int64) inject.Config {
	env := sift.DefaultEnvConfig(scaleNodeNames()...)
	env.FTMHeartbeatPeriod = 30 * time.Second
	env.HeartbeatArmorPeriod = 30 * time.Second
	env.DaemonAYAPeriod = 30 * time.Second
	env.SCCCommandDelay = 2 * time.Millisecond
	env.SharedCheckpoints = true
	env.SpreadPlacement = true
	env.ScopedLocationBroadcast = true
	env.DaemonRebind = true
	inj := scaleInjection(seed, scaleTimeout)
	return inject.Config{
		Seed:             seed,
		Model:            inj.Model,
		Target:           inj.Target,
		Apps:             inj.Apps,
		Env:              &env,
		SubmitAt:         inj.SubmitAt,
		Window:           inj.Window,
		NodeRestartAfter: inj.NodeRestartAfter,
		Timeout:          inj.Timeout,
	}
}

func scaleWorkload() *workload {
	w := &workload{name: "scale-wide", workers: 1, refBatches: 1, slice: 10 * time.Second}
	w.setup = func(int64) error {
		// Warm-up: build the 400-node cluster and register every daemon,
		// stopping at the submission (the run classifies as incomplete;
		// that is expected here).
		_, err := runInjection(scaleInjection(warmupSeed(w.name), scaleSubmitAt))
		return err
	}
	w.run = func(seed int64, b, _ int) ([]trialRecord, error) {
		t, err := runInjection(scaleInjection(batchSeed(seed, w.name, b), scaleTimeout))
		return []trialRecord{t}, err
	}
	w.cells = func(seed int64, b int) []tracedCell {
		return []tracedCell{{trials: []tracedTrial{{cfg: scaleConfig(batchSeed(seed, w.name, b))}}}}
	}
	w.check = func(t trialRecord) string {
		if t.res.SystemFailure {
			return fmt.Sprintf("400-node trial ended in a system failure (%s)", t.res.SysMode)
		}
		return ""
	}
	return w
}
