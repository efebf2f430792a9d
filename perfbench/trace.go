package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/sim"
)

// layer names one measured layer boundary. Spans carry the layer of the call
// they time; a layer's self time is its spans' total minus the time its
// child spans (of other layers) cover.
type layer int

const (
	layerOp        layer = iota // one closed-loop call (the span every other span descends from)
	layerSimRun                 // one engine run: core.RunProcs
	layerBuild                  // core constructors / Target.NewProcs
	layerStep                   // sim.Stepper.Step on a machine-backed protocol
	layerAdversary              // any sim.Adversary method
	layerEnumerate              // explore Target.Enumerate
	layerCertify                // explore Target.Certify
	layerTurn                   // live YieldSink.Arrive: the serial commit/deliver/grant turn
	layerSendGrant              // live Transport.SendGrant
	layerGrantWait              // live Transport.RecvGrant: a worker parked for its grant
	layerHandshake              // wire NewWireTransport → WaitReady
	layerClose                  // live Transport.Close (the wire close on the cluster)
	layerJoinExit               // wire live.Run return → last Join return
	numLayers
)

var layerNames = [numLayers]string{
	"op", "sim.run", "core.build", "core.step", "adversary", "explore.enumerate",
	"explore.certify", "live.turn", "live.send_grant", "live.grant_wait",
	"wire.handshake", "transport.close", "wire.join_exit",
}

// maxSpans caps the spans kept in memory for the span file; aggregates keep
// counting past it.
const maxSpans = 200_000

// span is one recorded layer-boundary call.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans and per-layer aggregates for a traced run. Every
// method is safe for concurrent use: the live and wire planes call the
// wrappers from worker, token-holder and connection-reader goroutines.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	op    atomic.Uint64 // current op span id
	opPar atomic.Uint64 // parent for spans with no closer known parent

	total [numLayers]atomic.Int64 // ns inside spans of the layer
	child [numLayers]atomic.Int64 // ns of those spans covered by child spans
	calls [numLayers]atomic.Int64

	// live turn bookkeeping: the most recent Arrive is the one whose frame
	// completed the barrier (the last arrival runs the turn), so it is the
	// parent of the grants and adversary calls the turn makes.
	inArrive   atomic.Int64
	lastArrive atomic.Uint64
	lastRound  atomic.Int64
	rounds     atomic.Int64
	grantSpan  []atomic.Uint64 // per PID: the worker's last RecvGrant span

	// wire relay counts, by direction (down: serve → join).
	framesDown, bytesDown, framesUp, bytesUp atomic.Int64
	stalledCloses                            atomic.Int64

	// events sums the simulated steps of the traced calls' runs.
	events int64

	mu      sync.Mutex
	spans   []span
	kept    atomic.Int64 // len(spans), readable without the lock
	dropped atomic.Int64
}

func newTracer() *tracer {
	tr := &tracer{epoch: time.Now()}
	tr.lastRound.Store(-1)
	return tr
}

// begin opens a span; the returned func closes it and returns its duration.
func (tr *tracer) begin(l layer, parent layer, parentID uint64) (uint64, func() time.Duration) {
	id := tr.ids.Add(1)
	start := time.Now()
	return id, func() time.Duration {
		end := time.Now()
		d := end.Sub(start)
		tr.total[l].Add(int64(d))
		tr.calls[l].Add(1)
		if parent != l {
			tr.child[parent].Add(int64(d))
		}
		if tr.kept.Load() >= maxSpans {
			tr.dropped.Add(1)
			return d
		}
		tr.mu.Lock()
		if len(tr.spans) < maxSpans {
			tr.spans = append(tr.spans, span{
				ID: id, Parent: parentID, Op: tr.op.Load(), Name: layerNames[l],
				Start: start.Sub(tr.epoch).Nanoseconds(), End: end.Sub(tr.epoch).Nanoseconds(),
			})
			tr.kept.Store(int64(len(tr.spans)))
		} else {
			tr.dropped.Add(1)
		}
		tr.mu.Unlock()
		return d
	}
}

// startOp opens the span of one closed-loop call.
func (tr *tracer) startOp() func() time.Duration {
	id, end := tr.begin(layerOp, layerOp, 0)
	tr.op.Store(id)
	tr.opPar.Store(id)
	return end
}

// nest opens a span of layer l under the span parentID of layer parent and
// makes it the parent of the spans opened until it closes (single-goroutine
// callers only: the sweep and certify loops).
func (tr *tracer) nest(l, parent layer, parentID uint64) func() time.Duration {
	id, end := tr.begin(l, parent, parentID)
	tr.opPar.Store(id)
	return func() time.Duration {
		d := end()
		tr.opPar.Store(parentID)
		return d
	}
}

// self returns the layer's self time in ns.
func (tr *tracer) self(l layer) int64 { return tr.total[l].Load() - tr.child[l].Load() }

// writeSpans writes the recorded spans as JSON lines.
func (tr *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	tr.mu.Lock()
	for i := range tr.spans {
		if err := enc.Encode(&tr.spans[i]); err != nil {
			tr.mu.Unlock()
			f.Close()
			return err
		}
	}
	tr.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSelf writes each layer's self time, call count and share of the op
// time.
func (tr *tracer) printSelf(w io.Writer) {
	opTotal := float64(tr.total[layerOp].Load())
	type row struct {
		name        string
		self, calls int64
	}
	var rows []row
	for l := layer(0); l < numLayers; l++ {
		if tr.calls[l].Load() > 0 {
			rows = append(rows, row{layerNames[l], tr.self(l), tr.calls[l].Load()})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].self > rows[j].self })
	fmt.Fprintf(w, "%-18s %14s %12s %8s\n", "layer", "self ms", "calls", "% of op")
	for _, r := range rows {
		share := 0.0
		if opTotal > 0 {
			share = 100 * float64(r.self) / opTotal
		}
		fmt.Fprintf(w, "%-18s %14.3f %12d %8.2f\n", r.name, float64(r.self)/1e6, r.calls, share)
	}
	if d := tr.dropped.Load(); d > 0 {
		fmt.Fprintf(w, "(%d spans past the %d in-memory cap were counted but not kept)\n", d, maxSpans)
	}
}

// --- Stepper wrapper -------------------------------------------------------

// tracedStepper times Step. It wraps machine-backed steppers only: a
// script-backed stepper must reach the engine as-is, because the engine
// recognises it through an unexported method no outside wrapper can forward.
type tracedStepper struct {
	inner  sim.Stepper
	tr     *tracer
	pid    int
	parent layer // the enclosing timed span's layer; layerStep when none
}

func (s *tracedStepper) Step(p *sim.Proc) sim.Yield {
	parentID := s.tr.opPar.Load()
	if s.parent == layerStep { // live plane: the worker's grant caused the step
		parentID = s.tr.grantSpan[s.pid].Load()
	}
	_, end := s.tr.begin(layerStep, s.parent, parentID)
	y := s.inner.Step(p)
	end()
	return y
}

// tracedRecoverable forwards sim.Recoverable, so crash-recovery faults
// restart a traced process exactly as they restart an untraced one.
type tracedRecoverable struct {
	*tracedStepper
	rec sim.Recoverable
}

func (s tracedRecoverable) Snapshot() any    { return s.rec.Snapshot() }
func (s tracedRecoverable) Restore(snap any) { s.rec.Restore(snap) }

// wrapStepper wraps st, keeping sim.Recoverable exactly when st has it.
// parent is the timed span the steps run inside (the engine run or the
// enumeration), or layerStep on the live plane, where steps run on worker
// goroutines outside any timed span and link to the worker's grant instead.
func (tr *tracer) wrapStepper(st sim.Stepper, pid int, parent layer) sim.Stepper {
	w := &tracedStepper{inner: st, tr: tr, pid: pid, parent: parent}
	if r, ok := st.(sim.Recoverable); ok {
		return tracedRecoverable{tracedStepper: w, rec: r}
	}
	return w
}

// wrapSteppers wraps every stepper a builder makes.
func (tr *tracer) wrapSteppers(mk func(int) sim.Stepper, parent layer) func(int) sim.Stepper {
	return func(id int) sim.Stepper { return tr.wrapStepper(mk(id), id, parent) }
}

// wrapProcs wraps a core.Procs builder result: stepper-backed procs get
// traced steppers, script-backed procs pass through untouched.
func (tr *tracer) wrapProcs(procs core.Procs, parent layer) core.Procs {
	if procs.Steppers != nil {
		procs.Steppers = tr.wrapSteppers(procs.Steppers, parent)
	}
	return procs
}

// wrapNewProcs wraps an explore.Target.NewProcs builder: construction is
// timed as core.build and the procs it returns are traced.
func (tr *tracer) wrapNewProcs(mk func() (core.Procs, error), parent layer) func() (core.Procs, error) {
	return func() (core.Procs, error) {
		_, end := tr.begin(layerBuild, parent, tr.opPar.Load())
		procs, err := mk()
		end()
		if err != nil {
			return procs, err
		}
		return tr.wrapProcs(procs, parent), nil
	}
}

// --- Adversary wrapper -----------------------------------------------------

// tracedAdversary times every Adversary method. The engine and the live
// plane discover DeliveryAdversary and Restarter by type assertion, so
// wrapAdversary returns a type that has each exactly when the inner value
// does.
type tracedAdversary struct {
	inner  sim.Adversary
	tr     *tracer
	parent layer
}

func (a *tracedAdversary) span() func() time.Duration {
	parent, parentID := a.parent, a.tr.opPar.Load()
	if a.tr.inArrive.Load() > 0 {
		parent, parentID = layerTurn, a.tr.lastArrive.Load()
	}
	_, end := a.tr.begin(layerAdversary, parent, parentID)
	return end
}

func (a *tracedAdversary) OnAction(round int64, pid int, act sim.Action) sim.Verdict {
	end := a.span()
	v := a.inner.OnAction(round, pid, act)
	end()
	return v
}

func (a *tracedAdversary) ScheduledCrashes(round int64) []int {
	end := a.span()
	v := a.inner.ScheduledCrashes(round)
	end()
	return v
}

func (a *tracedAdversary) NextScheduledCrash(after int64) int64 {
	end := a.span()
	v := a.inner.NextScheduledCrash(after)
	end()
	return v
}

func (a *tracedAdversary) onDeliver(d sim.DeliveryAdversary, round int64, m sim.Message) bool {
	end := a.span()
	ok := d.OnDeliver(round, m)
	end()
	return ok
}

func (a *tracedAdversary) scheduledRestarts(r sim.Restarter, round int64) []int {
	end := a.span()
	v := r.ScheduledRestarts(round)
	end()
	return v
}

func (a *tracedAdversary) nextScheduledRestart(r sim.Restarter, after int64) int64 {
	end := a.span()
	v := r.NextScheduledRestart(after)
	end()
	return v
}

type advDeliver struct {
	*tracedAdversary
	d sim.DeliveryAdversary
}

func (a advDeliver) OnDeliver(round int64, m sim.Message) bool { return a.onDeliver(a.d, round, m) }

type advRestart struct {
	*tracedAdversary
	r sim.Restarter
}

func (a advRestart) ScheduledRestarts(round int64) []int { return a.scheduledRestarts(a.r, round) }
func (a advRestart) NextScheduledRestart(after int64) int64 {
	return a.nextScheduledRestart(a.r, after)
}

type advBoth struct {
	*tracedAdversary
	d sim.DeliveryAdversary
	r sim.Restarter
}

func (a advBoth) OnDeliver(round int64, m sim.Message) bool { return a.onDeliver(a.d, round, m) }
func (a advBoth) ScheduledRestarts(round int64) []int       { return a.scheduledRestarts(a.r, round) }
func (a advBoth) NextScheduledRestart(after int64) int64 {
	return a.nextScheduledRestart(a.r, after)
}

// wrapAdversary wraps adv (nil means failure-free, as on both planes).
func (tr *tracer) wrapAdversary(adv sim.Adversary, parent layer) sim.Adversary {
	if adv == nil {
		adv = sim.NopAdversary{}
	}
	t := &tracedAdversary{inner: adv, tr: tr, parent: parent}
	d, isD := adv.(sim.DeliveryAdversary)
	r, isR := adv.(sim.Restarter)
	switch {
	case isD && isR:
		return advBoth{t, d, r}
	case isD:
		return advDeliver{t, d}
	case isR:
		return advRestart{t, r}
	}
	return t
}

// --- Transport / YieldSink wrapper ---------------------------------------

// tracedTransport times the barrier traffic of a live plane. The plane
// switches into remote mode when its transport implements
// live.WorkerHoster, so wrapTransport forwards that interface exactly when
// the inner transport has it.
type tracedTransport struct {
	inner live.Transport
	tr    *tracer
}

type tracedSink struct {
	inner live.YieldSink
	tr    *tracer
}

// Arrive times the barrier arrival. The arrival that completes a round runs
// the serial turn (commit, faults, delivery, next grants) inline, so the
// span covers the turn; non-final arrivals are a slot store and a counter
// decrement.
func (s tracedSink) Arrive(f live.YieldFrame) {
	tr := s.tr
	id, end := tr.begin(layerTurn, layerOp, tr.opPar.Load())
	if prev := tr.lastRound.Load(); f.Round != prev && tr.lastRound.CompareAndSwap(prev, f.Round) {
		tr.rounds.Add(1)
	}
	tr.inArrive.Add(1)
	tr.lastArrive.Store(id)
	s.inner.Arrive(f)
	tr.inArrive.Add(-1)
	end()
}

func (t *tracedTransport) Open(n int, sink live.YieldSink) {
	t.tr.grantSpan = make([]atomic.Uint64, n)
	t.tr.lastRound.Store(-1)
	t.inner.Open(n, tracedSink{inner: sink, tr: t.tr})
}

func (t *tracedTransport) SendGrant(pid int, g live.Grant) {
	parent, parentID := layerOp, t.tr.opPar.Load()
	if t.tr.inArrive.Load() > 0 {
		parent, parentID = layerTurn, t.tr.lastArrive.Load()
	}
	_, end := t.tr.begin(layerSendGrant, parent, parentID)
	t.inner.SendGrant(pid, g)
	end()
}

func (t *tracedTransport) RecvGrant(pid int) (live.Grant, bool) {
	id, end := t.tr.begin(layerGrantWait, layerGrantWait, t.tr.opPar.Load())
	g, ok := t.inner.RecvGrant(pid)
	end()
	t.tr.grantSpan[pid].Store(id)
	return g, ok
}

func (t *tracedTransport) SendYield(f live.YieldFrame) { t.inner.SendYield(f) }

func (t *tracedTransport) Close() {
	_, end := t.tr.begin(layerClose, layerOp, t.tr.opPar.Load())
	t.inner.Close()
	if end() > time.Second {
		t.tr.stalledCloses.Add(1)
	}
}

type tracedHoster struct {
	*tracedTransport
	h live.WorkerHoster
}

func (t tracedHoster) WorkerRecoverable(pid int) bool { return t.h.WorkerRecoverable(pid) }
func (t tracedHoster) SnapshotWorker(pid int)         { t.h.SnapshotWorker(pid) }
func (t tracedHoster) RestoreWorker(pid int)          { t.h.RestoreWorker(pid) }

// wrapTransport wraps a live transport, keeping live.WorkerHoster exactly
// when inner has it.
func (tr *tracer) wrapTransport(inner live.Transport) live.Transport {
	t := &tracedTransport{inner: inner, tr: tr}
	if h, ok := inner.(live.WorkerHoster); ok {
		return tracedHoster{tracedTransport: t, h: h}
	}
	return t
}
