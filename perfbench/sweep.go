package main

import (
	"fmt"
	"math/rand"
	"strings"

	doall "repro"
	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/sim"
)

// faultKind is one of the sweep's fault environments.
type faultKind int

const (
	faultNone    faultKind = iota
	faultCascade           // every process crashes at its first send after a few units
	faultRandom            // seeded random crashes
	faultStorm             // the full alphabet: kept-work crash, crash+restart, loss, slowdown
	faultKeep              // one scheduled crash that keeps its action's work
)

var faultNames = [...]string{"none", "cascade", "random", "storm", "keep"}

// stormPlan is one seeded full-alphabet fault storm.
type stormPlan struct {
	keepVictim, keepAction int
	restartVictim          int
	restartRound, delay    int64
	lossP                  float64
	maxDrops               int
	slowVictim             int
	slowRound              int64
}

// faultPlan is one run's fault environment with its seeded parameters.
type faultPlan struct {
	fault                  faultKind
	cascadeUnits, crashCap int
	randP                  float64
	advSeed                int64
	storm                  stormPlan
}

// draw seeds the plan's parameters for an (n, t) run.
func (f *faultPlan) draw(rng *rand.Rand, n, t int) {
	f.advSeed = rng.Int63()
	w := max(n/t, 1)
	switch f.fault {
	case faultCascade:
		f.cascadeUnits = 1 + rng.Intn(w)
		f.crashCap = t - 1
	case faultRandom:
		f.randP = 0.01 + 0.02*rng.Float64()
		f.crashCap = max(t/2, 1)
	case faultStorm:
		perm := rng.Perm(t)
		f.storm = stormPlan{
			keepVictim: perm[0], keepAction: 1 + rng.Intn(2*w+2),
			restartVictim: perm[1%t], restartRound: int64(1 + rng.Intn(w+4)), delay: int64(2 + rng.Intn(3)),
			lossP: 0.02, maxDrops: t,
			slowVictim: perm[2%t], slowRound: int64(rng.Intn(8)),
		}
	}
}

// failures builds the plan through the public API (fresh per run: failure
// specs are single-use).
func (f faultPlan) failures() doall.Failures {
	switch f.fault {
	case faultCascade:
		return doall.CascadeFailures(f.cascadeUnits, f.crashCap)
	case faultRandom:
		return doall.RandomFailures(f.randP, f.crashCap, f.advSeed)
	case faultStorm:
		s := f.storm
		return doall.CombinedFailures(
			doall.ScheduledFailures(
				doall.Crash{Process: s.keepVictim, AtAction: s.keepAction, KeepWork: true},
				doall.Crash{Process: s.restartVictim, Round: s.restartRound, RestartAt: s.restartRound + s.delay},
			),
			doall.LossyFailures(s.lossP, s.maxDrops, f.advSeed),
			doall.SlowdownFailures(s.slowVictim, s.slowRound, 2),
		)
	case faultKeep:
		return doall.ScheduledFailures(doall.Crash{Process: f.storm.keepVictim, AtAction: f.storm.keepAction, KeepWork: true})
	}
	return nil
}

// adversary builds the same fault pattern as failures as a sim.Adversary,
// for the planes that take one and for the traced runs that wrap it (nil:
// failure-free).
func (f faultPlan) adversary() sim.Adversary {
	switch f.fault {
	case faultCascade:
		return adversary.NewCascade(f.cascadeUnits, f.crashCap)
	case faultRandom:
		return adversary.NewRandom(f.randP, f.crashCap, f.advSeed)
	case faultStorm:
		s := f.storm
		return adversary.NewChain(
			adversary.NewSchedule(
				adversary.Crash{PID: s.keepVictim, AtAction: s.keepAction, KeepWork: true},
				adversary.Crash{PID: s.restartVictim, Round: s.restartRound, RestartAt: s.restartRound + s.delay},
			),
			adversary.NewLoss(s.lossP, s.maxDrops, f.advSeed),
			&adversary.Slowdown{PID: s.slowVictim, Round: s.slowRound, Factor: 2},
		)
	case faultKeep:
		return adversary.NewSchedule(adversary.Crash{PID: f.storm.keepVictim, AtAction: f.storm.keepAction, KeepWork: true})
	}
	return nil
}

// sweepJob is one doall.Run configuration of the sweep.
type sweepJob struct {
	faultPlan
	proto     doall.Protocol
	n, t      int
	k         int // UniformCheckpoint's CheckpointK
	bandwidth int
	observe   bool
	known     knownFault
	variant   int // which of the round's sweepVariants draws the job belongs to
}

// knownFault marks the fixed cases that fail on every run because of a
// fault in the program (see README.md). Each counts as a failed op only
// when it fails in exactly its known way; once the program is mended, the
// case passes the full oracle like any other run and the failed share
// drops.
type knownFault int

const (
	noKnownFault knownFault = iota
	// The paper guarantees completion, but exponential deadlines saturate
	// the round clock and the run ends in a deadlock error.
	knownSaturation
	// Protocol D drops a correct process from its view under the storm,
	// and the engine reports the machine's panic as an error.
	knownDStorm
	// The Observer is not called for the unit of an action whose crash
	// keeps its work, so its tally falls one short of Result.Work.
	knownObserverKeep
)

// strikes reports whether a run of a known-fault case failed in exactly its
// known way, and how.
func (k knownFault) strikes(res doall.Result, err error, tl *tally) (string, bool) {
	switch k {
	case knownSaturation:
		if err != nil && strings.Contains(err.Error(), "deadlock, all processes asleep forever") {
			return err.Error(), true
		}
	case knownDStorm:
		if err != nil && strings.Contains(err.Error(), "core: protocol D: correct process") {
			return err.Error(), true
		}
	case knownObserverKeep:
		if err == nil && tl != nil && tl.total == res.Work-1 {
			return fmt.Sprintf("observer tallied %d units of work, result says %d", tl.total, res.Work), true
		}
	}
	return "", false
}

func (j sweepJob) String() string {
	s := fmt.Sprintf("%v n=%d t=%d %s", j.proto, j.n, j.t, faultNames[j.fault])
	if j.bandwidth > 0 {
		s += fmt.Sprintf(" bw=%d", j.bandwidth)
	}
	if j.observe {
		s += " observed"
	}
	return s
}

// machineBacked reports whether doall.Run puts the job on the stepper
// substrate: protocols A–D and gossip without an Observer.
func (j sweepJob) machineBacked() bool {
	switch j.proto {
	case doall.ProtocolA, doall.ProtocolB, doall.ProtocolC, doall.ProtocolCLowMsg, doall.ProtocolD, doall.Gossip:
		return !j.observe
	}
	return false
}

// procs builds the job's process bodies with the core constructors doall.Run
// uses, so the traced run can wrap them; exec is the observer's work
// executor (nil without an Observer).
func (j sweepJob) procs(exec core.WorkExecutor, obs func(int, int)) (core.Procs, error) {
	n, t := j.n, j.t
	scripted := func(s func(int) sim.Script, err error) (core.Procs, error) {
		return core.Procs{Scripts: s}, err
	}
	switch j.proto {
	case doall.ProtocolA:
		return core.ProtocolAProcs(core.ABConfig{N: n, T: t, Exec: exec})
	case doall.ProtocolB:
		return core.ProtocolBProcs(core.ABConfig{N: n, T: t, Exec: exec})
	case doall.ProtocolC:
		return core.ProtocolCProcs(core.CConfig{N: n, T: t, Exec: exec})
	case doall.ProtocolCLowMsg:
		return core.ProtocolCProcs(core.CConfig{N: n, T: t, Exec: exec, ReportEvery: max((n+t-1)/t, 1)})
	case doall.ProtocolD:
		return core.ProtocolDProcs(core.DConfig{N: n, T: t, Exec: exec})
	case doall.Gossip:
		return core.GossipProcs(core.GossipConfig{N: n, T: t, Exec: exec})
	case doall.Trivial:
		if obs == nil {
			return core.Procs{Scripts: core.TrivialScripts(n, t)}, nil
		}
		return core.Procs{Scripts: func(id int) sim.Script {
			return func(p *sim.Proc) {
				for u := 1; u <= n; u++ {
					p.StepWork(u)
					obs(id, u)
				}
			}
		}}, nil
	case doall.SingleCheckpoint:
		return scripted(core.UniformCheckpointScripts(core.UniformConfig{N: n, T: t, K: max(n, 1), Exec: exec}))
	case doall.UniformCheckpoint:
		return scripted(core.UniformCheckpointScripts(core.UniformConfig{N: n, T: t, K: j.k, Exec: exec}))
	case doall.NaiveSpread:
		return scripted(core.NaiveSpreadScripts(core.NaiveConfig{N: n, T: t, Exec: exec}))
	}
	return core.Procs{}, fmt.Errorf("no builder for %v", j.proto)
}

// sweepMenu is the fixed make-up of one sweep round before seeding: every
// protocol at its sizes under every fault kind. Polynomial protocols reach
// t = 128; C, C-lowmsg and naive-spread stay below the sizes where their
// exponential deadlines saturate the round clock.
func sweepMenu() []sweepJob {
	type entry struct {
		proto     doall.Protocol
		sizes     [][2]int
		k         int
		bandwidth bool
	}
	poly := [][2]int{{64, 16}, {256, 64}, {512, 128}}
	entries := []entry{
		{proto: doall.ProtocolA, sizes: poly},
		{proto: doall.ProtocolB, sizes: poly},
		{proto: doall.ProtocolD, sizes: poly},
		{proto: doall.Gossip, sizes: poly},
		{proto: doall.Gossip, sizes: [][2]int{{64, 16}, {256, 64}}, bandwidth: true},
		{proto: doall.ProtocolC, sizes: [][2]int{{16, 4}, {24, 6}}},
		{proto: doall.ProtocolCLowMsg, sizes: [][2]int{{16, 4}, {24, 6}}},
		{proto: doall.NaiveSpread, sizes: [][2]int{{16, 4}, {24, 6}}},
		{proto: doall.Trivial, sizes: [][2]int{{64, 16}, {64, 128}}},
		{proto: doall.SingleCheckpoint, sizes: [][2]int{{64, 16}, {128, 64}}},
		{proto: doall.UniformCheckpoint, sizes: [][2]int{{64, 16}, {256, 64}}, k: 8},
	}
	var jobs []sweepJob
	group := 0
	for _, e := range entries {
		for _, sz := range e.sizes {
			for f := faultNone; f <= faultStorm; f++ {
				if f == faultStorm && e.proto == doall.ProtocolD {
					continue // D panics under some storms; see README.md
				}
				j := sweepJob{faultPlan: faultPlan{fault: f}, proto: e.proto, n: sz[0], t: sz[1], k: e.k}
				if e.bandwidth {
					j.bandwidth = max(1, (core.GossipFanout(j.t)+1)/2)
				}
				// One run per (protocol, size) goes through an Observer,
				// alternating between the failure-free and the cascade run:
				// under crashes that keep an action's work the Observer
				// misses that unit (see README.md), so it stays off those.
				j.observe = f == faultKind(group%2)
				jobs = append(jobs, j)
			}
			group++
		}
	}
	return append(jobs, knownFaultJobs()...)
}

// knownFaultJobs are the fixed cases that fail on every run (README.md,
// Known faults): their inputs do not depend on the seed.
func knownFaultJobs() []sweepJob {
	var jobs []sweepJob
	for _, c := range []struct {
		proto doall.Protocol
		n, t  int
	}{{doall.ProtocolC, 48, 8}, {doall.ProtocolCLowMsg, 40, 8}, {doall.NaiveSpread, 52, 8}} {
		jobs = append(jobs, sweepJob{proto: c.proto, n: c.n, t: c.t, known: knownSaturation,
			faultPlan: faultPlan{fault: faultCascade, cascadeUnits: 1, crashCap: c.t - 1}})
	}
	jobs = append(jobs, sweepJob{proto: doall.ProtocolD, n: 64, t: 16, known: knownDStorm,
		faultPlan: faultPlan{fault: faultStorm, advSeed: 1867598462707500820, storm: stormPlan{
			keepVictim: 13, keepAction: 2, restartVictim: 1, restartRound: 8, delay: 2,
			lossP: 0.02, maxDrops: 16, slowVictim: 6, slowRound: 5,
		}}})
	jobs = append(jobs, sweepJob{proto: doall.ProtocolB, n: 64, t: 16, observe: true, known: knownObserverKeep,
		faultPlan: faultPlan{fault: faultKeep, storm: stormPlan{keepVictim: 0, keepAction: 1}}})
	return jobs
}

// sweepVariants is how many seeded draws of each menu job one round runs:
// several draws per job keep the round's cost close to the fault
// parameters' mean, so runs with different seeds measure the same load.
const sweepVariants = 3

// seedSweep draws the round from the seed: sweepVariants copies of every
// menu job, each with its own fault parameters, in a shuffled order. The
// saturating cases keep fixed parameters.
func seedSweep(seed int64) []sweepJob {
	rng := rand.New(rand.NewSource(seed))
	var jobs []sweepJob
	for d := range sweepVariants {
		for _, j := range sweepMenu() {
			j.variant = d
			if j.known == noKnownFault {
				j.draw(rng, j.n, j.t)
			}
			jobs = append(jobs, j)
		}
	}
	rng.Shuffle(len(jobs), func(a, b int) { jobs[a], jobs[b] = jobs[b], jobs[a] })
	return jobs
}

// sweepBench runs the sweep: one call is one doall.Run.
type sweepBench struct {
	jobs []sweepJob

	// traced phase, machine-backed runs only: engine run time minus the
	// time inside Step and the adversary.
	selfNs, selfEvents int64
	buildNs, builds    int64
}

func newSweep(seed int64) (*sweepBench, error) {
	return &sweepBench{jobs: seedSweep(seed)}, nil
}

func (b *sweepBench) calls() int { return len(b.jobs) }

// warmup is the round's first draw of the menu.
func (b *sweepBench) warmup() []int {
	var calls []int
	for i, j := range b.jobs {
		if j.variant == 0 {
			calls = append(calls, i)
		}
	}
	return calls
}

// tally is the observer's own per-unit count.
type tally struct {
	total int64
	units map[int]bool
}

func (tl *tally) observe(_, unit int) {
	tl.total++
	tl.units[unit] = true
}

func (b *sweepBench) do(i int, tr *tracer, mt *meter) (outcome, error) {
	j := b.jobs[i]
	var tl *tally
	var obs func(int, int)
	if j.observe {
		tl = &tally{units: map[int]bool{}}
		obs = tl.observe
	}
	var res doall.Result
	var err error
	if tr == nil {
		cfg := doall.Config{
			Units: j.n, Workers: j.t, Protocol: j.proto, CheckpointK: j.k,
			Bandwidth: j.bandwidth, Failures: j.failures(), Observer: obs,
		}
		mt.begin()
		res, err = doall.Run(cfg)
		mt.end()
	} else {
		res, err = b.traced(j, tr, mt, obs)
	}
	out := outcome{ops: 1, script: !j.machineBacked(), result: res}
	if how, ok := j.known.strikes(res, err, tl); ok {
		out.failed = 1
		out.result = how
		return out, nil
	}
	if err != nil {
		return out, fmt.Errorf("sweep %v: %w", j, err)
	}
	c := doallCosts(j.n, j.t, res)
	out.costs = &c
	if err := checkSweep(j, res, tl); err != nil {
		return out, fmt.Errorf("sweep %v: %w", j, err)
	}
	return out, nil
}

// traced runs the job through the core constructors and engine with traced
// steppers (machine-backed protocols) and a traced adversary.
func (b *sweepBench) traced(j sweepJob, tr *tracer, mt *meter, obs func(int, int)) (doall.Result, error) {
	var exec core.WorkExecutor
	if obs != nil {
		exec = func(p *sim.Proc, unit int) {
			p.StepWork(unit)
			obs(p.ID(), unit)
		}
	}
	opt := core.RunOptions{
		Adversary: tr.wrapAdversary(j.adversary(), layerSimRun),
		Bandwidth: j.bandwidth, DetailedMetrics: true,
	}
	mt.begin()
	endOp := tr.startOp()
	opID := tr.op.Load()
	endBuild := tr.nest(layerBuild, layerOp, opID)
	procs, err := j.procs(exec, obs)
	buildD := endBuild()
	if err != nil {
		endOp()
		mt.end()
		return doall.Result{}, err
	}
	procs = tr.wrapProcs(procs, layerSimRun)
	step0, adv0 := tr.total[layerStep].Load(), tr.total[layerAdversary].Load()
	endRun := tr.nest(layerSimRun, layerOp, opID)
	res, err := core.RunProcs(j.n, j.t, procs, opt)
	runD := endRun()
	endOp()
	mt.end()
	b.buildNs += int64(buildD)
	b.builds++
	if err != nil {
		return doall.Result{}, err
	}
	if j.machineBacked() {
		inner := tr.total[layerStep].Load() - step0 + tr.total[layerAdversary].Load() - adv0
		b.selfNs += int64(runD) - inner
		b.selfEvents += res.Events
	}
	return toDoall(res), nil
}

// toDoall converts an engine result the way doall.Run reports it.
func toDoall(res sim.Result) doall.Result {
	out := doall.Result{
		Work: res.WorkTotal, WorkDistinct: res.WorkDistinct,
		Messages: res.Messages, MessagesByKind: res.MessagesByKind,
		Rounds: res.Rounds, Complete: res.Complete(),
		Survivors: res.Survivors, Crashes: res.Crashes, Restarts: res.Restarts,
		Dropped: res.Dropped, Omitted: res.Omitted, Deferred: res.Deferred,
		Events:  res.Events,
		Workers: make([]doall.WorkerStats, len(res.PerProc)),
	}
	for i, p := range res.PerProc {
		out.Workers[i] = doall.WorkerStats{
			Status: p.Status.String(), Work: p.Work, Sent: p.Sent, RetireRound: p.RetireRound,
		}
	}
	return out
}

func (b *sweepBench) layerMetrics(tr *tracer, untraced []outcome, m map[string]float64) error {
	var machineNs, machineEvents, scriptNs, scriptEvents int64
	for _, o := range untraced {
		if o.costs == nil {
			continue
		}
		if o.script {
			scriptNs += int64(o.elapsed)
			scriptEvents += o.costs.events
		} else {
			machineNs += int64(o.elapsed)
			machineEvents += o.costs.events
		}
	}
	m["core.machine_ns_per_event"] = ratio(machineNs, machineEvents)
	m["core.script_ns_per_event"] = ratio(scriptNs, scriptEvents)
	m["sim.self_ns_per_event"] = ratio(b.selfNs, b.selfEvents)
	m["sim.build_ns_per_run"] = ratio(b.buildNs, b.builds)
	runMetrics(untraced, m)
	engineMetrics(tr, m)
	return nil
}
