package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/sim"
)

// certSamplePerSpace is how many seeded schedules per space the traced run
// certifies one by one for explore.certify_ns and the engine-level layer
// metrics of certification-sized runs.
const certSamplePerSpace = 64

// certSpace is one certified schedule space.
type certSpace struct {
	name   string
	tg     explore.Target
	space  explore.Space
	m      int64 // per-victim fault choices, counted here from the space's definition
	raw    int64 // schedules in the space: Σ_k C(victims,k)·m^k
	shards int
}

type certCall struct{ space, shard int }

// certifyBench runs the certify workload: one call is one
// Target.Enumerate over one shard of a space, walked raw with one job; one
// op is one certified schedule.
type certifyBench struct {
	spaces []certSpace
	order  []certCall
	rng    *rand.Rand

	// got[space][shard] holds the schedules the shard certified since the
	// space was last completed (-1: not yet); seen counts the shards in.
	got  [][]int64
	seen []int
}

// fullAlphabet adds the X6/X7 fault alphabet to a crash space: send
// omission, round triggers 0–2, crash with restart after 2 rounds, slowdown
// 2 and message drops.
func fullAlphabet(s explore.Space, drops ...int) explore.Space {
	s.Omissions = true
	s.Rounds = []int64{0, 1, 2}
	s.RestartDelays = []int64{2}
	s.SlowFactors = []int{2}
	s.Drops = drops
	return s
}

// perVictimChoices counts one victim's fault choices in a space: action
// crashes (action × keep-work × prefix), omissions (action × prefix), round
// crashes, crash-restarts (round × delay), slowdowns (round × factor) and
// drops.
func perVictimChoices(s explore.Space) int64 {
	a, k, p := int64(len(s.Actions)), int64(len(s.KeepWork)), int64(len(s.Prefixes))
	r := int64(len(s.Rounds))
	m := a * k * p
	if s.Omissions {
		m += a * p
	}
	return m + r + r*int64(len(s.RestartDelays)) + r*int64(len(s.SlowFactors)) + int64(len(s.Drops))
}

func newCertify(seed int64) (*certifyBench, error) {
	// Each space is certified in contiguous shards (explore.Shard): one call
	// is one resumable piece of a certification. The shard counts give every
	// shard about the same time (~50 ms on a 2-core VM: a shard spans
	// several garbage collections), so the latency percentiles fall inside
	// one mode instead of between the spaces' modes.
	type def struct {
		proto   string
		n, t, f int
		shards  int
		space   func(tg explore.Target) (explore.Space, error)
	}
	defs := []def{
		// Crash-only: depth 8, delivery prefixes 0–2.
		{"b", 8, 3, 2, 1, func(explore.Target) (explore.Space, error) { return explore.NewSpace(3, 2, 8, 2), nil }},
		// X6's full-alphabet D space.
		{"d", 8, 3, 2, 4, func(explore.Target) (explore.Space, error) {
			return fullAlphabet(explore.NewSpace(3, 2, 6, 2), 1, 2), nil
		}},
	}
	// X7's successor spaces at the probe-derived depth.
	for _, p := range []string{"gossip", "gossip-cap"} {
		defs = append(defs, def{p, 6, 4, 2, 19, func(tg explore.Target) (explore.Space, error) {
			depth, err := tg.DefaultDepth()
			if err != nil {
				return explore.Space{}, err
			}
			return fullAlphabet(explore.NewSpace(4, 2, depth, 4), 1), nil
		}})
	}
	rng := rand.New(rand.NewSource(seed))
	b := &certifyBench{rng: rng}
	for si, d := range defs {
		tg, err := explore.NewTarget(d.proto, d.n, d.t, d.f)
		if err != nil {
			return nil, err
		}
		space, err := d.space(tg)
		if err != nil {
			return nil, err
		}
		cs := certSpace{name: d.proto, tg: tg, space: space, m: perVictimChoices(space), shards: d.shards}
		cs.raw = rawScheduleCount(len(space.Victims), space.MaxCrashes, cs.m)
		if got := space.Count(); got != cs.raw {
			return nil, fmt.Errorf("certify %s: Space.Count = %d, the count formula gives %d", d.proto, got, cs.raw)
		}
		for sh := 0; sh < cs.shards; sh++ {
			b.order = append(b.order, certCall{si, sh})
		}
		b.spaces = append(b.spaces, cs)
	}
	rng.Shuffle(len(b.order), func(i, j int) { b.order[i], b.order[j] = b.order[j], b.order[i] })
	b.got = make([][]int64, len(b.spaces))
	b.seen = make([]int, len(b.spaces))
	for i, cs := range b.spaces {
		b.got[i] = make([]int64, cs.shards)
		for j := range b.got[i] {
			b.got[i][j] = -1
		}
	}
	return b, nil
}

func (b *certifyBench) calls() int { return len(b.order) }

// warmup is the first shard of each space.
func (b *certifyBench) warmup() []int {
	var calls []int
	for i, c := range b.order {
		if c.shard == 0 {
			calls = append(calls, i)
		}
	}
	return calls
}

func (b *certifyBench) do(i int, tr *tracer, mt *meter) (outcome, error) {
	c := b.order[i]
	cs := &b.spaces[c.space]
	tg := cs.tg
	opt := explore.Options{Jobs: 1, Shard: explore.Shard{Index: c.shard, Count: cs.shards}}
	var rep *explore.Report
	var err error
	mt.begin()
	if tr == nil {
		rep, err = tg.Enumerate(cs.space, opt)
	} else {
		traced := tg
		endOp := tr.startOp()
		end := tr.nest(layerEnumerate, layerOp, tr.op.Load())
		traced.NewProcs = tr.wrapNewProcs(tg.NewProcs, layerEnumerate)
		rep, err = traced.Enumerate(cs.space, opt)
		end()
		endOp()
	}
	mt.end()
	if err != nil {
		return outcome{}, fmt.Errorf("certify %s shard %d/%d: %w", cs.name, c.shard, cs.shards, err)
	}
	out := outcome{ops: rep.Schedules, result: *rep}
	if err := b.check(cs, c, rep); err != nil {
		return out, fmt.Errorf("certify %s shard %d/%d: %w", cs.name, c.shard, cs.shards, err)
	}
	return out, nil
}

// check is the certify oracle for one shard, plus the whole-space count
// each time every shard of the space has been certified.
func (b *certifyBench) check(cs *certSpace, c certCall, rep *explore.Report) error {
	if rep.ViolationCount != 0 || len(rep.Violations) != 0 {
		return fmt.Errorf("%d violations, first %+v", rep.ViolationCount, rep.Violations)
	}
	if rep.Mode != "full" || rep.RawSpace != cs.raw {
		return fmt.Errorf("mode %q raw %d, want a full walk of %d schedules", rep.Mode, rep.RawSpace, cs.raw)
	}
	if rep.Walked != rep.WalkTotal || rep.Schedules != rep.Walked {
		return fmt.Errorf("walked %d of %d, certified %d", rep.Walked, rep.WalkTotal, rep.Schedules)
	}
	var hist int64
	for _, n := range rep.ByCrashes {
		hist += n
	}
	if hist != rep.Schedules {
		return fmt.Errorf("crash histogram sums to %d, %d schedules certified", hist, rep.Schedules)
	}
	// Every reported worst case must replay to its value.
	for _, w := range []struct {
		name  string
		e     explore.Extreme
		value func(sim.Result) int64
	}{
		{"work", rep.WorstWork, func(r sim.Result) int64 { return r.WorkTotal }},
		{"messages", rep.WorstMessages, func(r sim.Result) int64 { return r.Messages }},
		{"rounds", rep.WorstRounds, func(r sim.Result) int64 { return r.Rounds }},
		{"effort", rep.WorstEffort, func(r sim.Result) int64 { return r.Effort() }},
	} {
		vec, err := explore.ParseVector(w.e.Vector)
		if err != nil {
			return fmt.Errorf("worst %s vector %q: %w", w.name, w.e.Vector, err)
		}
		cert := cs.tg.Certify(vec)
		if got := w.value(cert.Result); got != w.e.Value || len(cert.Violations) != 0 {
			return fmt.Errorf("worst %s vector %q replays to %d (violations %v), report says %d",
				w.name, w.e.Vector, got, cert.Violations, w.e.Value)
		}
	}
	got := b.got[c.space]
	if got[c.shard] < 0 {
		b.seen[c.space]++
	}
	got[c.shard] = rep.Schedules
	if b.seen[c.space] == cs.shards {
		var sum int64
		for j := range got {
			sum += got[j]
			got[j] = -1
		}
		b.seen[c.space] = 0
		if sum != cs.raw {
			return fmt.Errorf("the space's shards certified %d schedules, the space has %d", sum, cs.raw)
		}
	}
	return nil
}

// sampleVector draws one schedule of the space with 1..MaxCrashes faults,
// decoding each victim's choice index in the order perVictimChoices counts.
func sampleVector(rng *rand.Rand, s explore.Space, m int64) explore.Vector {
	k := 1 + rng.Intn(s.MaxCrashes)
	victims := rng.Perm(len(s.Victims))[:k]
	sort.Ints(victims)
	var vec explore.Vector
	for _, vi := range victims {
		d := rng.Int63n(m)
		c := explore.Choice{Victim: s.Victims[vi]}
		a, kw, p := int64(len(s.Actions)), int64(len(s.KeepWork)), int64(len(s.Prefixes))
		r := int64(len(s.Rounds))
		switch {
		case d < a*kw*p:
			c.AtAction, c.KeepWork, c.Prefix = s.Actions[d/(kw*p)], s.KeepWork[(d/p)%kw], s.Prefixes[d%p]
		case s.Omissions && d < a*kw*p+a*p:
			d -= a * kw * p
			c.AtAction, c.Omit, c.Prefix = s.Actions[d/p], true, s.Prefixes[d%p]
		default:
			if s.Omissions {
				d -= a * p
			}
			d -= a * kw * p
			rd, sf := int64(len(s.RestartDelays)), int64(len(s.SlowFactors))
			switch {
			case d < r:
				c.Round = s.Rounds[d]
			case d < r+r*rd:
				d -= r
				c.Round = s.Rounds[d/rd]
				c.RestartAt = c.Round + s.RestartDelays[d%rd]
			case d < r+r*rd+r*sf:
				d -= r + r*rd
				c.Round, c.Slow = s.Rounds[d/sf], s.SlowFactors[d%sf]
			default:
				c.DropNth = s.Drops[d-r-r*rd-r*sf]
			}
		}
		vec = append(vec, c)
	}
	return vec
}

// layerMetrics certifies a seeded sample of schedules one by one
// (explore.certify_ns), then replays each through the engine with traced
// steppers and adversary, which must reproduce Certify's result exactly.
func (b *certifyBench) layerMetrics(tr *tracer, untraced []outcome, m map[string]float64) error {
	var schedules, engineRuns int64
	var enumNs time.Duration
	for _, o := range untraced {
		rep := o.result.(explore.Report)
		schedules += rep.Schedules
		engineRuns += rep.EngineRuns
		enumNs += o.elapsed
	}
	m["explore.engine_runs_per_schedule"] = ratio(engineRuns, schedules)
	m["explore.ns_per_engine_run"] = ratio(int64(enumNs), engineRuns)
	// Enumerate's own engine runs are reached only through the traced
	// NewProcs: construction time per run and steps per schedule.
	m["sim.build_ns_per_run"] = ratio(tr.total[layerBuild].Load(), tr.calls[layerBuild].Load())
	m["sim.events_per_op"] = ratio(tr.calls[layerStep].Load(), schedules)
	m["core.step_ns_per_event"] = ratio(tr.total[layerStep].Load(), tr.calls[layerStep].Load())
	return b.sampleMetrics(tr, m)
}

// sampleMetrics adds the sample-based metrics and fails on any replay that
// differs from Certify.
func (b *certifyBench) sampleMetrics(tr *tracer, m map[string]float64) error {
	var certNs time.Duration
	var certs int64
	var kept []outcome
	stepBefore, advBefore := tr.total[layerStep].Load(), tr.total[layerAdversary].Load()
	advCalls := tr.calls[layerAdversary].Load()
	var runNs, events int64
	for _, cs := range b.spaces {
		for range certSamplePerSpace {
			vec := sampleVector(b.rng, cs.space, cs.m)
			if err := vec.Validate(); err != nil {
				return fmt.Errorf("certify %s: sampled vector %v: %w", cs.name, vec, err)
			}
			endOp := tr.startOp()
			opID := tr.op.Load()
			end := tr.nest(layerCertify, layerOp, opID)
			cert := cs.tg.Certify(vec)
			certNs += end()
			certs++
			if len(cert.Violations) != 0 {
				return fmt.Errorf("certify %s %v: %v", cs.name, vec, cert.Violations)
			}
			procs, err := cs.tg.NewProcs()
			if err != nil {
				return err
			}
			opt := core.RunOptions{
				Adversary: tr.wrapAdversary(vec.Adversary(), layerSimRun),
				MaxRound:  cs.tg.MaxRound, Bandwidth: cs.tg.Bandwidth,
			}
			if cs.tg.SingleActive {
				opt.MaxActive = 1
			}
			end = tr.nest(layerSimRun, layerOp, opID)
			res, err := core.RunProcs(cs.tg.N, cs.tg.T, tr.wrapProcs(procs, layerSimRun), opt)
			runNs += int64(end())
			endOp()
			if err != nil || !reflect.DeepEqual(res, cert.Result) {
				return fmt.Errorf("certify %s %v: traced replay differs from Certify (err %v)", cs.name, vec, err)
			}
			c := simCosts(cs.tg.N, cs.tg.T, res)
			kept = append(kept, outcome{ops: 1, costs: &c})
			events += res.Events
		}
	}
	inner := tr.total[layerStep].Load() - stepBefore + tr.total[layerAdversary].Load() - advBefore
	m["explore.certify_ns"] = ratio(int64(certNs), certs)
	m["sim.self_ns_per_event"] = ratio(runNs-inner, events)
	m["adversary.calls_per_event"] = ratio(tr.calls[layerAdversary].Load()-advCalls, events)
	m["adversary.ns_per_call"] = ratio(tr.total[layerAdversary].Load()-advBefore, tr.calls[layerAdversary].Load()-advCalls)
	events0 := m["sim.events_per_op"] // steps per certified schedule, not per sampled run
	runMetrics(kept, m)
	m["sim.events_per_op"] = events0
	return nil
}
