package main

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/live"
	"repro/internal/sim"
)

// planeCase is one run on the live plane or the wire cluster: a protocol
// by its explore target name, a size and a fault plan.
type planeCase struct {
	faultPlan
	proto string
	n, t  int
}

func (c planeCase) String() string {
	return fmt.Sprintf("%s n=%d t=%d %s", c.proto, c.n, c.t, faultNames[c.fault])
}

// steppersFor builds fresh process bodies for a protocol by name (protocol
// state is single-use).
func steppersFor(proto string, n, t int) (func(int) sim.Stepper, error) {
	tg, err := explore.NewTarget(proto, n, t, t-1)
	if err != nil {
		return nil, err
	}
	return core.SteppersFor(tg.NewProcs())
}

// engineReference runs the case on the sim engine, outside any timed
// window: the live and wire planes must reproduce its Result exactly.
func (c planeCase) engineReference() (sim.Result, error) {
	st, err := steppersFor(c.proto, c.n, c.t)
	if err != nil {
		return sim.Result{}, err
	}
	return core.RunSteppers(c.n, c.t, st, core.RunOptions{Adversary: c.adversary(), DetailedMetrics: true})
}

// checkPlane is the oracle for a live or wire run: the paper's guarantee,
// the bookkeeping, and equality with the engine.
func checkPlane(c planeCase, res sim.Result, runErr error) error {
	ref, refErr := c.engineReference()
	if fmt.Sprint(runErr) != fmt.Sprint(refErr) {
		return fmt.Errorf("%v: error %v, the engine's is %v", c, runErr, refErr)
	}
	if !reflect.DeepEqual(res, ref) {
		return fmt.Errorf("%v: result differs from the engine's:\nplane:  %+v\nengine: %+v", c, res, ref)
	}
	if runErr != nil {
		return fmt.Errorf("%v: %w", c, runErr)
	}
	if err := checkGuarantee(simCosts(c.n, c.t, res)); err != nil {
		return fmt.Errorf("%v: %w", c, err)
	}
	return nil
}

// liveBench runs live.Run over the in-process transport.
type liveBench struct{ cases []planeCase }

// liveDraws and clusterDraws are how many seeded draws of each case one
// round runs: enough that the round's cost stays close to the fault
// parameters' mean whatever the seed. On live they are unequal, so the
// latency median and 90th percentile each fall inside one mode of the
// latency distribution (t = 16, t = 64) instead of in the gap between two.
var (
	liveDraws    = map[int]int{16: 24, 64: 8}
	clusterDraws = map[string]int{"b": 3, "gossip": 5}
)

func newLive(seed int64) (*liveBench, error) {
	rng := rand.New(rand.NewSource(seed))
	var cases []planeCase
	for _, t := range []int{16, 64} {
		for range liveDraws[t] {
			for _, c := range []planeCase{
				{proto: "b", faultPlan: faultPlan{fault: faultCascade}},      // one runnable process, the token re-grants itself
				{proto: "d", faultPlan: faultPlan{fault: faultRandom}},       // broadcast-heavy
				{proto: "gossip", faultPlan: faultPlan{fault: faultCascade}}, // point-to-point-heavy
				{proto: "b", faultPlan: faultPlan{fault: faultStorm}},
			} {
				c.n, c.t = 4*t, t
				c.draw(rng, c.n, c.t)
				cases = append(cases, c)
			}
		}
	}
	rng.Shuffle(len(cases), func(i, j int) { cases[i], cases[j] = cases[j], cases[i] })
	return &liveBench{cases: cases}, nil
}

func (b *liveBench) calls() int { return len(b.cases) }

// warmup is one round.
func (b *liveBench) warmup() []int { return allCalls(len(b.cases)) }

func (b *liveBench) do(i int, tr *tracer, mt *meter) (outcome, error) {
	c := b.cases[i]
	st, err := steppersFor(c.proto, c.n, c.t)
	if err != nil {
		return outcome{}, err
	}
	cfg := live.Config{NumProcs: c.t, NumUnits: c.n, Adversary: c.adversary(), DetailedMetrics: true}
	var res sim.Result
	var runErr error
	if tr == nil {
		mt.begin()
		res, runErr = live.Run(cfg, st)
		mt.end()
	} else {
		cfg.Adversary = tr.wrapAdversary(cfg.Adversary, layerOp)
		cfg.Transport = tr.wrapTransport(live.NewChanTransport(live.Latency{}))
		st = tr.wrapSteppers(st, layerStep)
		mt.begin()
		endOp := tr.startOp()
		res, runErr = live.Run(cfg, st)
		endOp()
		mt.end()
	}
	out := outcome{ops: 1, result: res}
	if err := checkPlane(c, res, runErr); err != nil {
		return out, err
	}
	cs := simCosts(c.n, c.t, res)
	out.costs = &cs
	return out, nil
}

func (b *liveBench) layerMetrics(tr *tracer, untraced []outcome, m map[string]float64) error {
	runMetrics(untraced, m)
	engineMetrics(tr, m)
	planeMetrics(tr, m)
	return nil
}

// planeMetrics adds the barrier metrics of the traced live-plane runs.
func planeMetrics(tr *tracer, m map[string]float64) {
	rounds := tr.rounds.Load()
	grants := tr.calls[layerSendGrant].Load()
	m["live.turn_ns_per_round"] = ratio(tr.self(layerTurn), rounds)
	m["live.grant_wait_ns_per_grant"] = ratio(tr.total[layerGrantWait].Load(), tr.calls[layerGrantWait].Load())
	m["live.send_grant_ns_per_grant"] = ratio(tr.total[layerSendGrant].Load(), grants)
	m["live.grants_per_round"] = ratio(grants, rounds)
}

// clusterJoins is the number of in-process joins per cluster: two
// connections stay within a 2-core box.
const clusterJoins = 2

// clusterUnits is n on the cluster: small enough that a run measures
// hundreds of clusters.
const clusterUnits = 64

// clusterBench runs a serve-side WireTransport and its joins over loopback
// TCP, a fresh cluster per run.
type clusterBench struct{ cases []planeCase }

func newCluster(seed int64) (*clusterBench, error) {
	rng := rand.New(rand.NewSource(seed))
	var cases []planeCase
	// Interleaved, so the two warm-up calls run one cluster of each.
	for k := range max(clusterDraws["b"], clusterDraws["gossip"]) {
		for _, proto := range []string{"b", "gossip"} {
			if k >= clusterDraws[proto] {
				continue
			}
			c := planeCase{proto: proto, n: clusterUnits, t: 16, faultPlan: faultPlan{fault: faultCascade}}
			c.draw(rng, c.n, c.t)
			// Three crashes: every run pays takeovers, and a run stays
			// short enough for a hundred runs per sample.
			c.crashCap = 3
			cases = append(cases, c)
		}
	}
	return &clusterBench{cases: cases}, nil
}

func (b *clusterBench) calls() int { return len(b.cases) }

// warmup is one cluster of each protocol.
func (b *clusterBench) warmup() []int { return []int{0, 1} }

// errJoinLost is how a Join reports the serve connection lost beyond its
// reconnect grace.
const errJoinLost = "join lost serve connection"

func (b *clusterBench) do(i int, tr *tracer, mt *meter) (outcome, error) {
	c := b.cases[i]
	adv := c.adversary()
	var endOp func() time.Duration
	if tr != nil {
		adv = tr.wrapAdversary(adv, layerOp)
	}
	mt.begin()
	if tr != nil {
		endOp = tr.startOp()
	}
	run, err := runCluster(c, adv, tr)
	if tr != nil {
		endOp()
	}
	mt.end()
	out := outcome{ops: 1, result: run.res}
	if err != nil {
		return out, fmt.Errorf("%v: %w", c, err)
	}
	lost := false
	for _, je := range run.joinErrs {
		if je == nil {
			continue
		}
		if !strings.Contains(je.Error(), errJoinLost) {
			return out, fmt.Errorf("%v: join: %w", c, je)
		}
		lost = true
	}
	if err := checkPlane(c, run.res, run.err); err != nil {
		return out, err
	}
	if lost {
		// The join shutdown race (a join that takes the serve's close for a
		// lost connection redials a closed listener) strikes now and then,
		// whatever the seed. The plane's Result is checked above like any
		// other. Counted as failed, the run would make the failed share
		// differ between runs, so it is left out of the attempted ops and
		// named here; the loop fails the run past maxLeftOutShare. Its time
		// stays in the latency sample.
		fmt.Fprintf(os.Stderr, "cluster %v: left out, %v\n", c, run.joinErrs)
		out.ops, out.leftOut = 0, true
		return out, nil
	}
	cs := simCosts(c.n, c.t, run.res)
	out.costs = &cs
	return out, nil
}

// clusterRun is what one cluster run returned: the plane's result and
// error, and each join's error.
type clusterRun struct {
	res      sim.Result
	err      error
	joinErrs []error
}

// runCluster runs one cluster from NewWireTransport to the last Join
// returning. The error reports a cluster that could not be set up.
func runCluster(c planeCase, adv sim.Adversary, tr *tracer) (clusterRun, error) {
	var endHandshake func() time.Duration
	if tr != nil {
		_, endHandshake = tr.begin(layerHandshake, layerOp, tr.op.Load())
	}
	wt, err := live.NewWireTransport(live.WireOptions{
		Network: "tcp", Addr: "127.0.0.1:0", Joins: clusterJoins,
		Spec: live.WireSpec{Protocol: c.proto, Units: c.n, Workers: c.t},
	})
	if err != nil {
		return clusterRun{}, err
	}
	addr := wt.Addr()
	var rl *relay
	if tr != nil {
		if rl, err = newRelay(addr, tr); err != nil {
			wt.Close()
			return clusterRun{}, err
		}
		addr = rl.addr()
	}
	errs := make(chan error, clusterJoins)
	for range clusterJoins {
		go func() {
			errs <- live.Join(live.JoinConfig{
				Network: "tcp", Addr: addr,
				Steppers: func(spec live.WireSpec) (func(int) sim.Stepper, error) {
					return steppersFor(spec.Protocol, spec.Units, spec.Workers)
				},
			})
		}()
	}
	joinErrs := func() []error {
		out := make([]error, clusterJoins)
		for k := range out {
			out[k] = <-errs
		}
		if rl != nil {
			rl.close()
		}
		return out
	}
	if err := wt.WaitReady(); err != nil {
		wt.Close()
		joinErrs()
		return clusterRun{}, err
	}
	var transport live.Transport = wt
	if tr != nil {
		endHandshake()
		transport = tr.wrapTransport(wt)
	}
	res, runErr := live.Run(live.Config{
		NumProcs: c.t, NumUnits: c.n, Adversary: adv, DetailedMetrics: true, Transport: transport,
	}, nil)
	var endExit func() time.Duration
	if tr != nil {
		_, endExit = tr.begin(layerJoinExit, layerOp, tr.op.Load())
	}
	run := clusterRun{res: res, err: runErr, joinErrs: joinErrs()}
	if tr != nil {
		endExit()
	}
	return run, nil
}

func (b *clusterBench) layerMetrics(tr *tracer, untraced []outcome, m map[string]float64) error {
	runMetrics(untraced, m)
	planeMetrics(tr, m)
	m["adversary.calls_per_event"] = ratio(tr.calls[layerAdversary].Load(), tr.events)
	m["adversary.ns_per_call"] = ratio(tr.total[layerAdversary].Load(), tr.calls[layerAdversary].Load())
	ms := func(l layer) float64 { return ratio(tr.total[l].Load(), tr.calls[l].Load()) / 1e6 }
	m["wire.handshake_ms"] = ms(layerHandshake)
	m["wire.join_exit_ms"] = ms(layerJoinExit)
	m["wire.close_ms"] = ms(layerClose)
	m["wire.stalled_closes"] = float64(tr.stalledCloses.Load())
	rounds := tr.rounds.Load()
	m["wire.down_frames_per_round"] = ratio(tr.framesDown.Load(), rounds)
	m["wire.up_frames_per_round"] = ratio(tr.framesUp.Load(), rounds)
	m["wire.down_bytes_per_frame"] = ratio(tr.bytesDown.Load(), tr.framesDown.Load())
	m["wire.up_bytes_per_frame"] = ratio(tr.bytesUp.Load(), tr.framesUp.Load())
	return nil
}
