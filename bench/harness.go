package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// processStart is as close to exec as Go code gets; the first set-up is
// timed from here, so runtime and package initialisation count as set-up.
var processStart = time.Now()

// Shape of one run. A workload is set up setupRounds times (a single set-up
// is too short to time steadily), each set-up ending
// in one untimed warm-up repetition at warmSize that fills pools, size hints
// and caches; the last environment stays for the timed repetitions. Jobs are
// sized under half a second so that a run holds twenty repetitions or more:
// the host's noise comes in sub-second bursts, and only short repetitions
// leave some of them untouched.
const (
	setupRounds = 6
	warmSize    = 0.5
	minReps     = 5
)

// harness carries what every workload needs: the host shape, the seed, and
// the temp directories to remove on every exit path.
type harness struct {
	host hostShape
	seed uint64
	root string // the repository checkout
	out  string // bench/out, created on demand

	mu    sync.Mutex
	temps []string
}

func newHarness(seed uint64) (*harness, error) {
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	h := &harness{host: readHost(), seed: seed, root: root, out: filepath.Join(root, "bench", "out")}
	if err := os.MkdirAll(h.out, 0o755); err != nil {
		return nil, err
	}
	return h, nil
}

// moduleRoot walks up from the working directory to the repository's go.mod:
// `go run ./bench` starts at the root, `go test ./bench` inside bench/.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above the working directory: run from the repository checkout")
		}
		dir = parent
	}
}

// tempDir makes a scratch directory under bench/out, inside the checkout.
func (h *harness) tempDir(kind string) (string, error) {
	dir, err := os.MkdirTemp(h.out, "tmp-"+kind+"-")
	if err != nil {
		return "", err
	}
	h.mu.Lock()
	h.temps = append(h.temps, dir)
	h.mu.Unlock()
	return dir, nil
}

// cleanup removes every temp directory still on disk. Environments remove
// their own on close; this is the net under a failed verdict, an error
// return or the watchdog.
func (h *harness) cleanup() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, d := range h.temps {
		os.RemoveAll(d)
	}
	h.temps = nil
}

// result is one workload's outcome in one pass.
type result struct {
	Workload  string          `json:"workload"`
	Trace     bool            `json:"trace"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	Why       []string        `json:"why,omitempty"`
	Metrics   map[string]dist `json:"metrics"`
	Reps      int             `json:"reps"`
}

// set records a metric that reports the median of its samples (or its one
// sample); setQuiet one that reports its quiet-host quartile.
func (r *result) set(name string, samples ...float64) {
	r.Metrics[name] = summarize(estMedian, samples)
}

func (r *result) setQuiet(name string, est estimator, samples []float64) {
	r.Metrics[name] = summarize(est, samples)
}

func (r *result) absorb(checked int, why []string) {
	r.Attempted += checked
	r.Failed += len(why)
	r.Why = append(r.Why, why...)
}

// verdict records one verification: ok, or wrong with the reason why.
func (r *result) verdict(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.Failed++
		r.Why = append(r.Why, fmt.Sprintf(format, args...))
	}
}

// outcome is one repetition: the job, the pairs that followed it, and the
// Go runtime's counters across the job.
type outcome struct {
	rep
	pairs pairRun
	mem   memCounters
}

// repetition runs the workload's job once, then its alternated
// native/instrumented pairs. For overhead-* (no environment) the pairs are
// the job: the verdict time is the instrumented half.
func repetition(w workload, e env, size float64, tr *tracer) (outcome, error) {
	var o outcome
	var err error
	before := readMem()
	if e != nil {
		if o.rep, err = e.run(size, tr); err != nil {
			return o, err
		}
		o.mem = readMem().since(before)
	}
	if o.pairs, err = runPairs(w.prog, scaled(w.pairs, size, 1), tr); err != nil {
		return o, err
	}
	if e == nil {
		o.rep = rep{verdict: total(o.pairs.inst), replays: len(o.pairs.inst), jobs: o.pairs.inst}
		o.mem = readMem().since(before)
	}
	o.checked += o.pairs.checked
	o.why = append(o.why, o.pairs.why...)
	return o, nil
}

// setUp opens the workload's environment and runs the warm-up repetition.
func setUp(h *harness, w workload, size float64) (env, rep, error) {
	var e env
	if w.open != nil {
		var err error
		if e, err = w.open(h); err != nil {
			return nil, rep{}, fmt.Errorf("%s: set-up: %w", w.Name, err)
		}
	}
	o, err := repetition(w, e, size*warmSize, nil)
	if err != nil {
		if e != nil {
			e.close()
		}
		return nil, rep{}, fmt.Errorf("%s: warm-up: %w", w.Name, err)
	}
	return e, o.rep, nil
}

// memCounters is the slice of runtime.MemStats the ledger reads.
type memCounters struct {
	alloc, mallocs uint64
	gc             uint32
}

func readMem() memCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memCounters{m.TotalAlloc, m.Mallocs, m.NumGC}
}

func (m memCounters) since(before memCounters) memCounters {
	return memCounters{m.alloc - before.alloc, m.mallocs - before.mallocs, m.gc - before.gc}
}

func (m *memCounters) add(o memCounters) {
	m.alloc += o.alloc
	m.mallocs += o.mallocs
	m.gc += o.gc
}

// runTimed is the -trace 0 pass: set-ups, then timed repetitions of the
// fixed job until seconds have passed (at least minReps), tracing off.
func runTimed(h *harness, w workload, seconds, size float64) (*result, error) {
	res := &result{Workload: w.Name, Metrics: map[string]dist{}}

	var e env
	var setups []float64
	from := processStart
	for i := 0; i < scaled(setupRounds, size, 1); i++ {
		if e != nil {
			e.close()
		}
		var warm rep
		var err error
		if e, warm, err = setUp(h, w, size); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(from).Seconds())
		res.absorb(warm.checked, warm.why)
		from = time.Now()
	}
	if e != nil {
		defer e.close()
	}

	var verdicts, rates, slowdowns, jobP50 []float64
	var mem memCounters
	replays := 0
	begin := time.Now()
	for res.Reps < scaled(minReps, size, 1) || time.Since(begin).Seconds() < seconds {
		o, err := repetition(w, e, size, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: repetition %d: %w", w.Name, res.Reps, err)
		}
		mem.add(o.mem)
		replays += o.replays
		res.Reps++
		res.absorb(o.checked, o.why)
		verdicts = append(verdicts, o.verdict.Seconds())
		rates = append(rates, float64(o.replays)/o.verdict.Seconds())
		slowdowns = append(slowdowns, o.pairs.slowdown())
		jobP50 = append(jobP50, median(in(time.Millisecond, o.jobs)))
	}

	res.setQuiet("setup_s", estQuietLow, setups)
	res.setQuiet("verdict_s", estQuietLow, verdicts)
	res.setQuiet("replays_per_s", estQuietHigh, rates)
	res.set("slowdown_x", slowdowns...)
	res.setQuiet("job_p50_ms", estQuietLow, jobP50)
	res.set("alloc_kb_per_replay", float64(mem.alloc)/1024/float64(replays))
	res.set("peak_rss_mb", peakRSSMB())
	return res, nil
}

// runTraced is the -trace 1 pass: one set-up, the layer battery, then the
// workload's job alternated untraced / traced until seconds have passed (at
// least minTracePairs times). Spans go to bench/out/trace-<workload>.json.
func runTraced(h *harness, w workload, seconds, size float64) (*result, error) {
	res := &result{Workload: w.Name, Trace: true, Metrics: map[string]dist{}}
	begin := time.Now()
	tr := newTracer()

	e, warm, err := setUp(h, w, size)
	if err != nil {
		return nil, err
	}
	if e != nil {
		defer e.close()
	}
	res.absorb(warm.checked, warm.why)
	if err := layerBattery(h, res, size, tr); err != nil {
		return nil, err
	}
	if err := workloadTrace(w, e, res, tr, size, func(pairs int) bool {
		return pairs < minTracePairs || time.Since(begin).Seconds() < seconds
	}); err != nil {
		return nil, err
	}
	if err := tr.write(filepath.Join(h.out, "trace-"+w.Name+".json")); err != nil {
		return nil, err
	}
	return res, nil
}

const minTracePairs = 2

// workloadTrace measures what is specific to the selected workload: the
// cost of tracing its job, the phase split of its program under hook
// brackets, its native batch and op count, and the Go runtime's counters
// per replay.
func workloadTrace(w workload, e env, res *result, tr *tracer, size float64, more func(pairs int) bool) error {
	var plain, traced, native []float64
	var phases phaseTotals
	var mem memCounters
	replays := 0
	for n := 0; more(n); n++ {
		for _, t := range []*tracer{nil, tr} {
			o, err := repetition(w, e, size, t)
			if err != nil {
				return fmt.Errorf("%s: traced pass: %w", w.Name, err)
			}
			res.absorb(o.checked, o.why)
			native = append(native, in(time.Nanosecond, o.pairs.native)...)
			if t == nil {
				plain = append(plain, o.verdict.Seconds())
				mem.add(o.mem)
				replays += o.replays
			} else {
				traced = append(traced, o.verdict.Seconds())
				phases.addTotals(o.pairs.phases)
			}
		}
		res.Reps++
	}
	res.set("trace.overhead_x", median(traced)/median(plain))
	res.set("core.phase_program_share", phases.share(phaseProgram))
	res.set("core.phase_tool_share", phases.share(phaseTool))
	res.set("core.phase_runtime_share", phases.share(phaseRuntime))
	res.set("go.mallocs_per_replay", float64(mem.mallocs)/float64(replays))
	res.set("go.gc_cycles_per_kreplay", float64(mem.gc)*1000/float64(replays))

	ops, err := opsPerRun(w.prog)
	if err != nil {
		return err
	}
	if p := w.prog.pinned; p != nil {
		res.verdict(ops == p.Ops, "%s: %d ops in one run, pinned %d", w.prog.name, ops, p.Ops)
	}
	nativeRun := median(native)
	res.set("mpi.ops_per_run", float64(ops))
	res.set("mpi.native_ns_per_op", nativeRun/float64(ops))
	// The batch the timed pass alternates with its instrumented runs.
	res.set("mpi.native_batch_s", nativeRun*float64(w.pairs)/1e9)
	return nil
}
