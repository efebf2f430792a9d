// Command perfbench is the repository benchmark. It runs one named workload
// for one seed as a closed loop — one caller, one call at a time — checks
// every output against an oracle computed apart from the program, and
// prints one JSON line with the metrics. See README.md for the workloads,
// the metrics and what each layer metric should move.
//
//	perfbench --workload sweep --seed 1 --seconds 30 --trace 0
//	perfbench --workload cluster --seed 1 --seconds 30 --repeat 10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// bench is one workload: a round of calls, run in order, repeated until the
// run's time is up. Every round attempts the same calls, so a call that
// fails on every run is the same share of every run's attempts.
type bench interface {
	// calls is the number of calls in one round.
	calls() int
	// warmup lists the calls each set-up runs untraced, so pools and lazy
	// state are warm before measuring: a fixed choice of calls that does
	// not depend on the round's seeded order, so setup_s stays comparable
	// between seeds.
	warmup() []int
	// do runs call i, untraced when tr is nil, timing only the call into the
	// program through mt, and checks its output. An error is a wrong output
	// and fails the run.
	do(i int, tr *tracer, mt *meter) (outcome, error)
	// layerMetrics adds the workload's per-layer metrics from the traced
	// calls and the untraced calls they replayed.
	layerMetrics(tr *tracer, untraced []outcome, m map[string]float64) error
}

// outcome is what one call did.
type outcome struct {
	ops, failed int64
	elapsed     time.Duration // time inside the program, set by the loop
	script      bool          // the run went through the script substrate
	costs       *costs        // the run's costs; nil for failed runs and certifications
	result      any           // the call's output, for the traced-vs-untraced check
	// leftOut marks a call that hit a fault striking only now and then
	// (a cluster run that lost a join at shutdown): its output is still
	// checked, but it counts in neither attempted nor failed.
	leftOut bool
}

// meter times the part of a call that runs inside the program, in wall
// time and in the CPU time of the whole process (every goroutine: the
// planes' workers, the wire's connections, the garbage collector), and
// counts its heap allocations; the oracle and input building around it
// stay out.
type meter struct {
	start             time.Time
	cpuStart          time.Duration
	m0                runtime.MemStats
	last, total       time.Duration
	cpuLast, cpuTotal time.Duration
	allocs, bytes     uint64
	m1                runtime.MemStats
}

func (mt *meter) begin() {
	runtime.ReadMemStats(&mt.m0)
	mt.start = time.Now()
	mt.cpuStart = processCPU()
}

func (mt *meter) end() {
	mt.cpuLast = processCPU() - mt.cpuStart
	mt.last = time.Since(mt.start)
	runtime.ReadMemStats(&mt.m1)
	mt.total += mt.last
	mt.cpuTotal += mt.cpuLast
	mt.allocs += mt.m1.Mallocs - mt.m0.Mallocs
	mt.bytes += mt.m1.TotalAlloc - mt.m0.TotalAlloc
}

var workloads = map[string]func(seed int64) (bench, error){
	"sweep":   func(seed int64) (bench, error) { return newSweep(seed) },
	"certify": func(seed int64) (bench, error) { return newCertify(seed) },
	"live":    func(seed int64) (bench, error) { return newLive(seed) },
	"cluster": func(seed int64) (bench, error) { return newCluster(seed) },
}

// processCPU is the CPU time of every thread of the process so far
// (CLOCK_PROCESS_CPUTIME_ID). Unlike wall time it leaves out the time the
// host runs other machines on this one's processors.
func processCPU() time.Duration {
	var ts syscall.Timespec
	const clockProcessCPUTimeID = 2
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): %v", errno))
	}
	return time.Duration(ts.Nano())
}

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median.
const setupRepeats = 7

// maxLeftOutShare is the largest share of a run's calls that may be left
// out; past it the run fails, so a fault that strikes more often shows.
const maxLeftOutShare = 0.05

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: sweep, certify, live or cluster")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Int("seconds", 30, "how long one run measures")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	repeat := fs.Int("repeat", 0, "run the workload this many times (seeds seed..seed+k-1) and print each end-to-end metric's spread against its bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload sweep|certify|live|cluster, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	if *repeat > 0 {
		if err := repeatRuns(*name, *seed, *seconds, *repeat, stdout, stderr); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	// One caller on at most two cores: the closed loop needs one, the
	// live and wire planes' goroutines share the other.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	rep, err := measure(mk, *name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, stderr)
	if rep != nil {
		if err != nil {
			rep.Correct = false
		}
		line, _ := json.Marshal(rep)
		fmt.Fprintln(stdout, string(line))
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// measure sets the workload up setupRepeats times, then runs whole rounds
// until the run's time is up, and reports the end-to-end metrics; traced,
// it reports the per-layer metrics instead.
func measure(mk func(int64) (bench, error), name string, seed int64, dur time.Duration, traced bool, stderr io.Writer) (*report, error) {
	var b bench
	var setups, wallSetups []float64
	for range setupRepeats {
		runtime.GC() // every set-up starts from the same heap
		t0, c0 := time.Now(), processCPU()
		nb, err := mk(seed)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", name, err)
		}
		var mt meter
		for _, i := range nb.warmup() {
			if _, err := nb.do(i, nil, &mt); err != nil {
				return nil, fmt.Errorf("%s warm-up: %w", name, err)
			}
		}
		setups = append(setups, (processCPU() - c0).Seconds())
		wallSetups = append(wallSetups, time.Since(t0).Seconds())
		b = nb
	}
	fmt.Fprintf(stderr, "set-ups: CPU %.4f s, wall %.4f s\n", setups, wallSetups)
	// The last set-up's bench is measured; its warm-up calls do not count.
	if !traced {
		rep, _, err := loop(b, dur, nil)
		if rep != nil {
			rep.Metrics["setup_s"] = metric{quantile(setups, 0.5), "s"}
		}
		return rep, err
	}
	return tracedRun(b, name, seed, dur, stderr)
}

// minCalls is the fewest calls a measured run makes, so that at least ten
// lie beyond its 90th latency percentile.
const minCalls = 100

// loop runs whole rounds until dur has passed and at least minCalls calls
// have been made, keeping every outcome in *keep when keep is set. Every
// round makes the same calls, so throughput and allocations are taken per
// round. Allocations are the median round. Throughput is the upper quartile
// of the rounds, and each round still pays its share of garbage collection.
//
// Times are the process's CPU time inside the calls. On a shared host the
// hypervisor takes up to two thirds of a processor from this machine for
// minutes at a time; that moves wall times by a third or more between runs
// and CPU times far less. The wall-time figures go to standard error.
func loop(b bench, dur time.Duration, keep *[]outcome) (*report, *meter, error) {
	runtime.GC() // start from the same heap whatever set-up left behind
	var mt meter
	var lat, rate, wallLat, wallRate, allocs, bytes []float64
	var ops, failed, leftOut int64
	start := time.Now()
	for time.Since(start) < dur || len(lat) < minCalls {
		var roundOps int64
		t0, c0, a0, b0 := mt.total, mt.cpuTotal, mt.allocs, mt.bytes
		for i := range b.calls() {
			out, err := b.do(i, nil, &mt)
			out.elapsed = mt.last
			ops += out.ops
			roundOps += out.ops
			failed += out.failed
			if out.leftOut {
				leftOut++
			}
			if err != nil {
				return partial(ops, failed), &mt, err
			}
			lat = append(lat, float64(mt.cpuLast)/1e6)
			wallLat = append(wallLat, float64(mt.last)/1e6)
			if keep != nil {
				*keep = append(*keep, out)
			}
		}
		n := float64(roundOps)
		rate = append(rate, n/(mt.cpuTotal-c0).Seconds())
		wallRate = append(wallRate, n/(mt.total-t0).Seconds())
		allocs = append(allocs, float64(mt.allocs-a0)/n)
		bytes = append(bytes, float64(mt.bytes-b0)/n)
	}
	fmt.Fprintf(os.Stderr, "wall: %.4g op/s, p50 %.4g ms, p90 %.4g ms over %d calls\n",
		quantile(wallRate, 0.75), quantile(wallLat, 0.5), quantile(wallLat, 0.9), len(wallLat))
	if rss, err := maxRSSMiB(); err == nil {
		fmt.Fprintf(os.Stderr, "max RSS %.1f MiB\n", rss)
	}
	if leftOut > 0 {
		fmt.Fprintf(os.Stderr, "%d of %d calls left out\n", leftOut, len(lat))
	}
	if float64(leftOut) > maxLeftOutShare*float64(len(lat)) {
		return partial(ops, failed), &mt, fmt.Errorf("%d of %d calls left out, more than %.0f%%", leftOut, len(lat), 100*maxLeftOutShare)
	}
	rep := partial(ops, failed)
	rep.Correct = true
	rep.Metrics = map[string]metric{
		"ops_per_cpu_s":      {quantile(rate, 0.75), "op/cpu_s"},
		"cpu_ms_p50":         {quantile(lat, 0.5), "ms"},
		"cpu_ms_p90":         {quantile(lat, 0.9), "ms"},
		"allocs_per_op":      {quantile(allocs, 0.5), "alloc/op"},
		"alloc_bytes_per_op": {quantile(bytes, 0.5), "B/op"},
	}
	return rep, &mt, nil
}

// allCalls lists calls 0..n-1.
func allCalls(n int) []int {
	calls := make([]int, n)
	for i := range calls {
		calls[i] = i
	}
	return calls
}

func partial(ops, failed int64) *report {
	return &report{Attempted: ops, Failed: failed, Metrics: map[string]metric{}}
}

// maxRSSMiB is the process's peak resident set size.
func maxRSSMiB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

// tracedRun measures half the time untraced, keeping every output, then
// replays the same calls traced. Every traced output must equal its
// untraced twin; the per-layer metrics and the tracing overhead come from
// the pair.
func tracedRun(b bench, name string, seed int64, dur time.Duration, stderr io.Writer) (*report, error) {
	var kept []outcome
	rep, untraced, err := loop(b, dur/2, &kept)
	if err != nil {
		return rep, err
	}
	tr := newTracer()
	var mt meter
	for k, want := range kept {
		got, err := b.do(k%b.calls(), tr, &mt)
		if got.costs != nil {
			tr.events += got.costs.events
		}
		if err != nil {
			return rep, fmt.Errorf("traced: %w", err)
		}
		if !reflect.DeepEqual(want.result, got.result) {
			return rep, fmt.Errorf("traced call %d (%d of the round) differs from its untraced run:\nuntraced: %+v\ntraced:   %+v",
				k, k%b.calls(), want.result, got.result)
		}
	}
	m := map[string]float64{}
	for _, l := range perLayerNames {
		m[l.name] = 0
	}
	if err := b.layerMetrics(tr, kept, m); err != nil {
		return rep, fmt.Errorf("traced: %w", err)
	}
	m["trace.overhead_pct"] = 100 * (mt.total.Seconds()/untraced.total.Seconds() - 1)
	rep.Metrics = map[string]metric{}
	for _, l := range perLayerNames {
		rep.Metrics[l.name] = metric{m[l.name], l.unit}
	}
	fmt.Fprintf(stderr, "%s seed %d traced: %d calls, untraced %.3fs, traced %.3fs (overhead %.1f%%)\n",
		name, seed, len(kept), untraced.total.Seconds(), mt.total.Seconds(), m["trace.overhead_pct"])
	tr.printSelf(stderr)
	path := fmt.Sprintf(".bench_build/spans/%s-seed%d.jsonl", name, seed)
	if err := tr.writeSpans(path); err != nil {
		return rep, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(stderr, "spans written to %s\n", path)
	return rep, nil
}

// perLayerNames lists every per-layer metric a traced run prints, on every
// workload; a layer a workload does not exercise reads 0.
var perLayerNames = []struct{ name, unit string }{
	{"sim.self_ns_per_event", "ns/event"},
	{"sim.rounds_per_event", "round/event"},
	{"sim.events_per_op", "event/op"},
	{"sim.build_ns_per_run", "ns/run"},
	{"sim.messages_per_run", "msg/run"},
	{"sim.deferred_per_run", "msg/run"},
	{"sim.dropped_per_run", "msg/run"},
	{"sim.restarts_per_run", "restart/run"},
	{"sim.effort_per_run", "effort/run"},
	{"core.machine_ns_per_event", "ns/event"},
	{"core.script_ns_per_event", "ns/event"},
	{"core.step_ns_per_event", "ns/event"},
	{"adversary.calls_per_event", "call/event"},
	{"adversary.ns_per_call", "ns/call"},
	{"explore.engine_runs_per_schedule", "run/schedule"},
	{"explore.ns_per_engine_run", "ns/run"},
	{"explore.certify_ns", "ns/schedule"},
	{"live.turn_ns_per_round", "ns/round"},
	{"live.grant_wait_ns_per_grant", "ns/grant"},
	{"live.send_grant_ns_per_grant", "ns/grant"},
	{"live.grants_per_round", "grant/round"},
	{"wire.handshake_ms", "ms"},
	{"wire.join_exit_ms", "ms"},
	{"wire.close_ms", "ms"},
	{"wire.stalled_closes", "count"},
	{"wire.down_frames_per_round", "frame/round"},
	{"wire.up_frames_per_round", "frame/round"},
	{"wire.down_bytes_per_frame", "B/frame"},
	{"wire.up_bytes_per_frame", "B/frame"},
	{"trace.overhead_pct", "%"},
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// runMetrics adds the per-run cost metrics of the untraced runs.
func runMetrics(kept []outcome, m map[string]float64) {
	var runs, ops, msgs, deferred, dropped, restarts, effort, rounds, events int64
	for _, o := range kept {
		ops += o.ops
		if c := o.costs; c != nil {
			runs++
			msgs += c.messages
			deferred += c.deferred
			dropped += c.dropped
			restarts += c.restarts
			effort += c.work + c.messages
			rounds += c.rounds
			events += c.events
		}
	}
	m["sim.messages_per_run"] = ratio(msgs, runs)
	m["sim.deferred_per_run"] = ratio(deferred, runs)
	m["sim.dropped_per_run"] = ratio(dropped, runs)
	m["sim.restarts_per_run"] = ratio(restarts, runs)
	m["sim.effort_per_run"] = ratio(effort, runs)
	m["sim.rounds_per_event"] = ratio(rounds, events)
	m["sim.events_per_op"] = ratio(events, ops)
}

// engineMetrics adds the step and adversary metrics of the traced calls.
func engineMetrics(tr *tracer, m map[string]float64) {
	m["core.step_ns_per_event"] = ratio(tr.total[layerStep].Load(), tr.calls[layerStep].Load())
	m["adversary.calls_per_event"] = ratio(tr.calls[layerAdversary].Load(), tr.events)
	m["adversary.ns_per_call"] = ratio(tr.total[layerAdversary].Load(), tr.calls[layerAdversary].Load())
}
