package main

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	doall "repro"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/live"
	"repro/internal/sim"
)

// The raw-count formula must agree with Space.Count on small spaces of
// every fault kind.
func TestRawScheduleCountMatchesSpaceCount(t *testing.T) {
	spaces := []explore.Space{
		explore.NewSpace(3, 2, 8, 2),
		explore.NewSpace(4, 3, 2, 1),
		fullAlphabet(explore.NewSpace(3, 2, 6, 2), 1, 2),
		fullAlphabet(explore.NewSpace(4, 2, 5, 4), 1),
		{Victims: []int{0, 1, 2, 3, 4}, MaxCrashes: 2, Rounds: []int64{0, 3}},
		{Victims: []int{0, 1}, MaxCrashes: 1, Drops: []int{1, 2, 3}},
	}
	for _, s := range spaces {
		m := perVictimChoices(s)
		if got, want := rawScheduleCount(len(s.Victims), s.MaxCrashes, m), s.Count(); got != want {
			t.Errorf("%+v: formula %d, Space.Count %d", s, got, want)
		}
	}
	// Hand-computed: 3 victims, 2 faults, 48 choices: 1 + 3·48 + 3·48².
	if got := rawScheduleCount(3, 2, 48); got != 1+3*48+3*48*48 {
		t.Errorf("rawScheduleCount(3, 2, 48) = %d", got)
	}
	// X7's acceptance space: 154,241 schedules.
	tg, err := explore.NewTarget("gossip", 6, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	depth, err := tg.DefaultDepth()
	if err != nil {
		t.Fatal(err)
	}
	s := fullAlphabet(explore.NewSpace(4, 2, depth, 4), 1)
	if got := rawScheduleCount(4, 2, perVictimChoices(s)); got != 154241 {
		t.Errorf("X7 space: %d schedules, want 154241", got)
	}
}

// Every sampled vector is valid and lies in its space; the sample covers
// every fault kind.
func TestSampleVector(t *testing.T) {
	s := fullAlphabet(explore.NewSpace(3, 2, 6, 2), 1, 2)
	m := perVictimChoices(s)
	rng := rand.New(rand.NewSource(1))
	kinds := map[string]bool{}
	for range 2000 {
		vec := sampleVector(rng, s, m)
		if err := vec.Validate(); err != nil {
			t.Fatalf("%v: %v", vec, err)
		}
		for _, c := range vec {
			switch {
			case c.DropNth > 0:
				kinds["drop"] = true
			case c.Slow > 0:
				kinds["slow"] = true
			case c.RestartAt > 0:
				kinds["restart"] = true
			case c.Omit:
				kinds["omit"] = true
			case c.AtAction > 0:
				kinds["action"] = true
			default:
				kinds["round"] = true
			}
		}
	}
	if len(kinds) != 6 {
		t.Errorf("sample covers %v, want all six fault kinds", kinds)
	}
}

func TestFailureFreeCosts(t *testing.T) {
	// D, n=10, t=4: exactly n work, ⌈10/4⌉+2 = 5 rounds, at most 2t² = 32 messages.
	d := costs{n: 10, t: 4, work: 10, rounds: 5, messages: 32}
	if err := failureFreeCosts(doall.ProtocolD, d); err != nil {
		t.Errorf("D at its exact costs: %v", err)
	}
	for _, bad := range []costs{
		{n: 10, t: 4, work: 11, rounds: 5, messages: 32},
		{n: 10, t: 4, work: 10, rounds: 6, messages: 32},
		{n: 10, t: 4, work: 10, rounds: 5, messages: 33},
	} {
		if failureFreeCosts(doall.ProtocolD, bad) == nil {
			t.Errorf("D %+v passed", bad)
		}
	}
	// B, t=4: messages at most 10·4·2 = 80.
	if err := failureFreeCosts(doall.ProtocolB, costs{n: 16, t: 4, work: 16, messages: 80}); err != nil {
		t.Errorf("B at the bound: %v", err)
	}
	if failureFreeCosts(doall.ProtocolB, costs{n: 16, t: 4, work: 16, messages: 81}) == nil {
		t.Error("B above 10t√t passed")
	}
	// Trivial, n=3, t=2: 6 work, 0 messages, 3 rounds.
	if err := failureFreeCosts(doall.Trivial, costs{n: 3, t: 2, work: 6, rounds: 3}); err != nil {
		t.Errorf("trivial: %v", err)
	}
	if failureFreeCosts(doall.Trivial, costs{n: 3, t: 2, work: 6, rounds: 4}) == nil {
		t.Error("trivial with n+1 rounds passed")
	}
}

func TestCrashOnlyBounds(t *testing.T) {
	// A, n=16, t=4: work ≤ 3·16 = 48, messages ≤ 9·8 = 72.
	if err := crashOnlyBounds(doall.ProtocolA, costs{n: 16, t: 4, work: 48, messages: 72}); err != nil {
		t.Errorf("A at its bounds: %v", err)
	}
	if crashOnlyBounds(doall.ProtocolA, costs{n: 16, t: 4, work: 49}) == nil {
		t.Error("A above 3n work passed")
	}
	if crashOnlyBounds(doall.ProtocolA, costs{n: 16, t: 4, messages: 73}) == nil {
		t.Error("A above 9t√t messages passed")
	}
	// D, n=2, t=4, one crash: work ≤ 4·4 = 16, messages ≤ 6·16 + 72/(2√2).
	msgs := int64(math.Floor(6*16 + 72/(2*math.Sqrt2)))
	if err := crashOnlyBounds(doall.ProtocolD, costs{n: 2, t: 4, crashes: 1, work: 16, messages: msgs}); err != nil {
		t.Errorf("D at its bounds: %v", err)
	}
	if crashOnlyBounds(doall.ProtocolD, costs{n: 2, t: 4, crashes: 1, work: 16, messages: msgs + 1}) == nil {
		t.Error("D above its message bound passed")
	}
}

func TestCheckGuarantee(t *testing.T) {
	ok := costs{n: 4, work: 5, perWork: 5, messages: 3, perSent: 3, distinct: 4, complete: true, survivors: 1}
	if err := checkGuarantee(ok); err != nil {
		t.Fatal(err)
	}
	incomplete := ok
	incomplete.complete, incomplete.distinct = false, 3
	noSurvivor := incomplete
	noSurvivor.survivors = 0
	if checkGuarantee(incomplete) == nil {
		t.Error("an incomplete run with a survivor passed")
	}
	if err := checkGuarantee(noSurvivor); err != nil {
		t.Errorf("an incomplete run without survivors: %v", err)
	}
	for _, bad := range []costs{
		{n: 4, work: 5, perWork: 4, distinct: 4, complete: true},
		{n: 4, messages: 3, perSent: 2, distinct: 4, complete: true},
	} {
		if checkGuarantee(bad) == nil {
			t.Errorf("%+v passed", bad)
		}
	}
}

// quantile follows Python's statistics.quantiles (exclusive method).
func TestQuantile(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, c := range []struct{ q, want float64 }{
		{0.25, 2.75}, {0.5, 5.5}, {0.75, 8.25}, {0, 1}, {1, 10},
	} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	var hundred []float64
	for i := 1; i <= 100; i++ {
		hundred = append(hundred, float64(i))
	}
	if got := quantile(hundred, 0.9); math.Abs(got-90.9) > 1e-9 {
		t.Errorf("p90 of 1..100 = %v, want 90.9", got)
	}
	med, q1, q3, rel := spread(xs)
	if med != 5.5 || q1 != 2.75 || q3 != 8.25 || math.Abs(rel-5.5/5.5) > 1e-12 {
		t.Errorf("spread = %v %v %v %v", med, q1, q3, rel)
	}
}

// The relay's frame counter finds frames by their length prefix however
// the stream is split.
func TestFrameCounter(t *testing.T) {
	var stream []byte
	var bytes int64
	for _, n := range []int{5, 1, 300, 70000, 2} {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(n))
		stream = append(stream, hdr[:]...)
		stream = append(stream, make([]byte, n)...)
		bytes += int64(4 + n)
	}
	for _, chunk := range []int{1, 2, 3, 7, 4096, len(stream)} {
		var fc frameCounter
		for i := 0; i < len(stream); i += chunk {
			fc.feed(stream[i:min(i+chunk, len(stream))])
		}
		if fc.frames != 5 || fc.bytes != bytes {
			t.Errorf("chunk %d: %d frames %d bytes, want 5 and %d", chunk, fc.frames, fc.bytes, bytes)
		}
	}
	// A frame still in flight is not counted.
	var fc frameCounter
	fc.feed(stream[:6])
	if fc.frames != 0 {
		t.Errorf("partial frame counted: %d", fc.frames)
	}
}

type plainAdversary struct{ sim.NopAdversary }

type fullAdversary struct{ sim.NopAdversary }

func (fullAdversary) OnDeliver(int64, sim.Message) bool { return true }
func (fullAdversary) ScheduledRestarts(int64) []int     { return nil }
func (fullAdversary) NextScheduledRestart(int64) int64  { return -1 }

type deliverAdversary struct{ sim.NopAdversary }

func (deliverAdversary) OnDeliver(int64, sim.Message) bool { return false }

type restartAdversary struct{ sim.NopAdversary }

func (restartAdversary) ScheduledRestarts(int64) []int    { return []int{1} }
func (restartAdversary) NextScheduledRestart(int64) int64 { return 7 }

// The traced wrappers forward each optional interface exactly when the
// wrapped value has it.
func TestWrappersForwardOptionalInterfaces(t *testing.T) {
	tr := newTracer()
	for _, c := range []struct {
		adv         sim.Adversary
		deliver, rs bool
	}{
		{plainAdversary{}, false, false},
		{deliverAdversary{}, true, false},
		{restartAdversary{}, false, true},
		{fullAdversary{}, true, true},
	} {
		w := tr.wrapAdversary(c.adv, layerSimRun)
		_, d := w.(sim.DeliveryAdversary)
		_, r := w.(sim.Restarter)
		if d != c.deliver || r != c.rs {
			t.Errorf("%T: wrapped DeliveryAdversary=%v Restarter=%v, want %v %v", c.adv, d, r, c.deliver, c.rs)
		}
	}
	if w := tr.wrapAdversary(deliverAdversary{}, layerSimRun); w.(sim.DeliveryAdversary).OnDeliver(0, sim.Message{}) {
		t.Error("OnDeliver not forwarded")
	}
	if w := tr.wrapAdversary(restartAdversary{}, layerSimRun); w.(sim.Restarter).NextScheduledRestart(0) != 7 {
		t.Error("NextScheduledRestart not forwarded")
	}

	st, err := steppersFor("b", 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st(0).(sim.Recoverable); !ok {
		t.Fatal("protocol B's stepper is not Recoverable")
	}
	if _, ok := tr.wrapStepper(st(0), 0, layerSimRun).(sim.Recoverable); !ok {
		t.Error("wrapped Recoverable stepper lost Recoverable")
	}
	plain := stepperFunc(func(*sim.Proc) sim.Yield { return sim.Yield{} })
	if _, ok := tr.wrapStepper(plain, 0, layerSimRun).(sim.Recoverable); ok {
		t.Error("wrapped plain stepper gained Recoverable")
	}

	if _, ok := tr.wrapTransport(live.NewChanTransport(live.Latency{})).(live.WorkerHoster); ok {
		t.Error("wrapped ChanTransport gained WorkerHoster")
	}
	if _, ok := tr.wrapTransport(fakeHoster{}).(live.WorkerHoster); !ok {
		t.Error("wrapped WorkerHoster lost WorkerHoster")
	}
}

type stepperFunc func(*sim.Proc) sim.Yield

func (f stepperFunc) Step(p *sim.Proc) sim.Yield { return f(p) }

type fakeHoster struct{ live.Transport }

func (fakeHoster) WorkerRecoverable(int) bool { return false }
func (fakeHoster) SnapshotWorker(int)         {}
func (fakeHoster) RestoreWorker(int)          {}

// The traced stepper wrapper changes no result: a traced engine run of B
// under a cascade equals the untraced one.
func TestTracedEngineRunMatches(t *testing.T) {
	c := planeCase{proto: "b", n: 32, t: 8, faultPlan: faultPlan{fault: faultCascade, cascadeUnits: 2, crashCap: 7}}
	want, err := c.engineReference()
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	st, err := steppersFor(c.proto, c.n, c.t)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.RunSteppers(c.n, c.t, tr.wrapSteppers(st, layerSimRun), core.RunOptions{
		Adversary: tr.wrapAdversary(c.adversary(), layerSimRun), DetailedMetrics: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("traced run differs:\ngot:  %+v\nwant: %+v", got, want)
	}
	if tr.calls[layerStep].Load() != got.Events {
		t.Errorf("%d traced steps, the run has %d events", tr.calls[layerStep].Load(), got.Events)
	}
}

// Each known-fault case runs without a wrong output, untraced and traced,
// and both runs agree: it either fails in exactly its known way (a failed
// op) or, once the program is mended, passes the full oracle.
func TestKnownFaultJobs(t *testing.T) {
	b := &sweepBench{jobs: knownFaultJobs()}
	for i, j := range b.jobs {
		var mt meter
		plain, err := b.do(i, nil, &mt)
		if err != nil {
			t.Fatalf("%v: %v", j, err)
		}
		traced, err := b.do(i, newTracer(), &mt)
		if err != nil {
			t.Fatalf("%v traced: %v", j, err)
		}
		if plain.failed != traced.failed || !reflect.DeepEqual(plain.result, traced.result) {
			t.Errorf("%v: untraced %+v, traced %+v", j, plain.result, traced.result)
		}
		t.Logf("%v: failed=%d %v", j, plain.failed, plain.result)
	}
}

func TestKnownFaultStrikes(t *testing.T) {
	deadlock := errors.New("sim: deadlock, all processes asleep forever")
	dropped := errors.New("core: protocol D: correct process 6 dropped from 3")
	res := doall.Result{Work: 5}
	for _, c := range []struct {
		k    knownFault
		err  error
		tl   *tally
		want bool
	}{
		{knownSaturation, deadlock, nil, true},
		{knownSaturation, nil, nil, false},
		{knownSaturation, dropped, nil, false},
		{knownDStorm, dropped, nil, true},
		{knownDStorm, deadlock, nil, false},
		{knownObserverKeep, nil, &tally{total: 4}, true},
		{knownObserverKeep, nil, &tally{total: 5}, false},
		{knownObserverKeep, nil, &tally{total: 3}, false},
		{knownObserverKeep, deadlock, &tally{total: 4}, false},
		{noKnownFault, deadlock, nil, false},
	} {
		if _, got := c.k.strikes(res, c.err, c.tl); got != c.want {
			t.Errorf("%d strikes(%v, %+v) = %v, want %v", c.k, c.err, c.tl, got, c.want)
		}
	}
}
