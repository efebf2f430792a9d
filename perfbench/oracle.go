package main

import (
	"fmt"
	"math"

	doall "repro"
	"repro/internal/sim"
)

// The oracle checks outputs against properties the paper guarantees and
// against costs recomputed here from the paper's formulas — never against
// stored copies of the program's own output.

// costs is the slice of a run's result the oracle reads, from either
// doall.Result or sim.Result.
type costs struct {
	n, t               int
	work, messages     int64
	distinct           int
	rounds             int64
	complete           bool
	survivors, crashes int
	perWork, perSent   int64
	restarts, dropped  int64
	deferred, events   int64
}

func doallCosts(n, t int, r doall.Result) costs {
	c := costs{n: n, t: t, work: r.Work, messages: r.Messages, distinct: r.WorkDistinct,
		rounds: r.Rounds, complete: r.Complete, survivors: r.Survivors, crashes: r.Crashes,
		restarts: r.Restarts, dropped: r.Dropped, deferred: r.Deferred, events: r.Events}
	for _, w := range r.Workers {
		c.perWork += w.Work
		c.perSent += w.Sent
	}
	return c
}

func simCosts(n, t int, r sim.Result) costs {
	c := costs{n: n, t: t, work: r.WorkTotal, messages: r.Messages, distinct: r.WorkDistinct,
		rounds: r.Rounds, complete: r.Complete(), survivors: r.Survivors, crashes: r.Crashes,
		restarts: r.Restarts, dropped: r.Dropped, deferred: r.Deferred, events: r.Events}
	for _, p := range r.PerProc {
		c.perWork += p.Work
		c.perSent += p.Sent
	}
	return c
}

// checkGuarantee is the paper's guarantee plus the bookkeeping identities,
// which every run must satisfy under every fault kind.
func checkGuarantee(c costs) error {
	if c.survivors > 0 && (!c.complete || c.distinct != c.n) {
		return fmt.Errorf("paper guarantee broken: %d survivors but complete=%v with %d of %d units done",
			c.survivors, c.complete, c.distinct, c.n)
	}
	if c.perWork != c.work {
		return fmt.Errorf("per-worker work sums to %d, result says %d", c.perWork, c.work)
	}
	if c.perSent != c.messages {
		return fmt.Errorf("per-worker sends sum to %d, result says %d", c.perSent, c.messages)
	}
	return nil
}

// tSqrtT is t√t, the A/B message-bound scale.
func tSqrtT(t int) float64 { return float64(t) * math.Sqrt(float64(t)) }

// failureFreeCosts checks the exact failure-free costs the paper states.
func failureFreeCosts(p doall.Protocol, c costs) error {
	n, t := int64(c.n), int64(c.t)
	switch p {
	case doall.ProtocolA, doall.ProtocolB:
		if c.work != n {
			return fmt.Errorf("failure-free work %d, want exactly n=%d", c.work, n)
		}
		if float64(c.messages) > 10*tSqrtT(c.t) {
			return fmt.Errorf("failure-free messages %d above 10·t√t=%.0f", c.messages, 10*tSqrtT(c.t))
		}
	case doall.ProtocolD:
		if c.work != n {
			return fmt.Errorf("failure-free work %d, want exactly n=%d", c.work, n)
		}
		if want := (n+t-1)/t + 2; c.rounds != want {
			return fmt.Errorf("failure-free rounds %d, want ⌈n/t⌉+2=%d", c.rounds, want)
		}
		if c.messages > 2*t*t {
			return fmt.Errorf("failure-free messages %d above 2t²=%d", c.messages, 2*t*t)
		}
	case doall.Trivial:
		if c.work != t*n || c.messages != 0 || c.rounds != n {
			return fmt.Errorf("failure-free trivial: work %d messages %d rounds %d, want %d, 0, %d",
				c.work, c.messages, c.rounds, t*n, n)
		}
	}
	return nil
}

// crashOnlyBounds checks the worst-case bounds of DESIGN.md §4 under crash
// failures: T1 (A: 3·max(n,t) work, 9t√t messages), T2 (B: 3·max(n,t)
// work, 10t√t messages) and T6 (D reverting to A: 4·max(n,t) work,
// (4f+2)t² + 9t√t/(2√2) messages with f the crashes).
func crashOnlyBounds(p doall.Protocol, c costs) error {
	nPrime := int64(max(c.n, c.t))
	var work int64
	var msgs float64
	switch p {
	case doall.ProtocolA:
		work, msgs = 3*nPrime, 9*tSqrtT(c.t)
	case doall.ProtocolB:
		work, msgs = 3*nPrime, 10*tSqrtT(c.t)
	case doall.ProtocolD:
		t := float64(c.t)
		work = 4 * nPrime
		msgs = float64(4*c.crashes+2)*t*t + 9*tSqrtT(c.t)/(2*math.Sqrt2)
	default:
		return nil
	}
	if c.work > work {
		return fmt.Errorf("work %d above the crash-only bound %d", c.work, work)
	}
	if float64(c.messages) > msgs {
		return fmt.Errorf("messages %d above the crash-only bound %.0f", c.messages, msgs)
	}
	return nil
}

// checkSweep is the full oracle for one sweep run.
func checkSweep(j sweepJob, r doall.Result, tl *tally) error {
	c := doallCosts(j.n, j.t, r)
	if err := checkGuarantee(c); err != nil {
		return err
	}
	if tl != nil {
		if tl.total != r.Work {
			return fmt.Errorf("observer tallied %d units of work, result says %d", tl.total, r.Work)
		}
		if len(tl.units) != r.WorkDistinct {
			return fmt.Errorf("observer saw %d distinct units, result says %d", len(tl.units), r.WorkDistinct)
		}
	}
	switch j.fault {
	case faultNone:
		return failureFreeCosts(j.proto, c)
	case faultCascade, faultRandom, faultKeep:
		return crashOnlyBounds(j.proto, c)
	}
	// The extended alphabet legitimately breaks the cost bounds of A and B
	// (loss, restart and slowdown); completion and bookkeeping only.
	return nil
}

// rawScheduleCount is the number of schedules in a fault space with the
// given victims, fault cap and per-victim choice count m: Σ_k C(v,k)·m^k.
func rawScheduleCount(victims, maxFaults int, m int64) int64 {
	total := int64(0)
	for k := 0; k <= min(maxFaults, victims); k++ {
		term := binomial(victims, k)
		for range k {
			term *= m
		}
		total += term
	}
	return total
}

func binomial(n, k int) int64 {
	r := int64(1)
	for i := 1; i <= k; i++ {
		r = r * int64(n-k+i) / int64(i)
	}
	return r
}
