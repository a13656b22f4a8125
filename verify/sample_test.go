package verify_test

import (
	"reflect"
	"sort"
	"sync"
	"testing"

	"dampi/verify"
	"dampi/workloads/iprobe"
)

// pollProgram is the schedule-sampling demo program: the master's bug is
// reachable only when all three Iprobe polls are forced to report "not
// found", i.e. through three consecutive choice-point flips.
var pollProgram = iprobe.Program(iprobe.Config{})

func sampleCfg(seed uint64) verify.Config {
	return verify.Config{
		Procs:          2,
		Mode:           verify.ModeSample,
		SampleStrategy: "random",
		Samples:        24,
		Seed:           seed,
	}
}

// errorLines renders a result's failing interleavings in a deterministic,
// comparable form.
func errorLines(r *verify.Result) []string {
	var out []string
	for _, e := range r.Errors {
		out = append(out, e.Decisions.String()+": "+e.Err.Error())
	}
	sort.Strings(out)
	return out
}

// TestSampleSeedDeterminism: the same seed reproduces the same schedule set
// — identical sampled counts, identical distinct decision vectors, identical
// verdicts — across independent runs and across the local engines: the
// serial explorer (Workers 0), a one-slot pool and a four-slot pool all
// route completions through the same expansion seam and the same report
// accounting. (TestSampleClusterMatchesSerial extends the chain to dcoord.)
func TestSampleSeedDeterminism(t *testing.T) {
	a, err := verify.Run(sampleCfg(7), pollProgram)
	if err != nil {
		t.Fatalf("run A: %v", err)
	}
	for _, workers := range []int{0, 1, 4} {
		cfg := sampleCfg(7)
		cfg.Workers = workers
		b, err := verify.Run(cfg, pollProgram)
		if err != nil {
			t.Fatalf("run B (workers=%d): %v", workers, err)
		}
		if a.Sampled != b.Sampled || a.SampledDistinct != b.SampledDistinct {
			t.Errorf("workers=%d: sampled counts differ: A %d/%d, B %d/%d",
				workers, a.Sampled, a.SampledDistinct, b.Sampled, b.SampledDistinct)
		}
		if !reflect.DeepEqual(a.SampledSchedules, b.SampledSchedules) {
			t.Errorf("workers=%d: schedule sets differ:\nA: %v\nB: %v", workers, a.SampledSchedules, b.SampledSchedules)
		}
		if a.Summary() != b.Summary() {
			t.Errorf("workers=%d: summaries differ:\nA: %s\nB: %s", workers, a.Summary(), b.Summary())
		}
		if !reflect.DeepEqual(errorLines(a), errorLines(b)) {
			t.Errorf("workers=%d: verdicts differ:\nA: %v\nB: %v", workers, errorLines(a), errorLines(b))
		}
	}
	if a.Sampled == 0 {
		t.Error("sampling mode reported zero sampled schedules")
	}
	if len(a.SampledSchedules) != a.SampledDistinct {
		t.Errorf("dump has %d vectors, SampledDistinct = %d",
			len(a.SampledSchedules), a.SampledDistinct)
	}
	if !sort.StringsAreSorted(a.SampledSchedules) {
		t.Errorf("schedule dump is not sorted: %v", a.SampledSchedules)
	}
}

// TestSampleFindsIprobeBug: the seeded walk stacks the three Iprobe
// suppressions and reaches the abandonment bug that plain execution (and the
// default exhaustive exploration, which does not branch on Iprobe outcomes)
// never hits.
func TestSampleFindsIprobeBug(t *testing.T) {
	plain, err := verify.Run(verify.Config{Procs: 2}, pollProgram)
	if err != nil {
		t.Fatalf("exhaustive run: %v", err)
	}
	if plain.Errored() {
		t.Fatalf("default exhaustive exploration found the choice-point bug: %v", plain.Errors[0].Err)
	}
	res, err := verify.Run(sampleCfg(5), pollProgram)
	if err != nil {
		t.Fatalf("sampled run: %v", err)
	}
	if !res.Errored() {
		t.Fatal("sampling did not find the Iprobe-outcome bug")
	}
	want := "{r0:[0→0 1→0 2→0]}"
	if got := res.Errors[0].Decisions.String(); got != want {
		t.Errorf("reproducer = %s, want %s", got, want)
	}
}

// TestChoicePointReproducerReplays: the reproducer a sampling run prints
// re-applies through ReplayChoicePoints and reproduces the deadlock; plain
// Replay does not track the Iprobe epochs, takes the natural outcomes, and
// must stay clean (the pre-choice-point contract).
func TestChoicePointReproducerReplays(t *testing.T) {
	res, err := verify.Run(sampleCfg(5), pollProgram)
	if err != nil {
		t.Fatalf("sampled run: %v", err)
	}
	if !res.Errored() {
		t.Fatal("sampling did not find the Iprobe-outcome bug")
	}
	repro := res.Errors[0].Decisions

	r, err := verify.ReplayChoicePoints(2, pollProgram, repro)
	if err != nil {
		t.Fatalf("ReplayChoicePoints: %v", err)
	}
	if r.Err == nil {
		t.Error("ReplayChoicePoints did not reproduce the deadlock")
	}
	plain, err := verify.Replay(2, pollProgram, repro)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if plain.Err != nil {
		t.Errorf("plain Replay applied choice-point decisions it should not track: %v", plain.Err)
	}
}

// TestSampledSubsetOfExhaustive: on a space small enough to exhaust, every
// decision vector a sampled run visits is one the choice-point exhaustive
// exploration visits too, and every sampled verdict is confirmed by the
// exhaustive pass — sampling explores a subset, never an inconsistent space.
func TestSampledSubsetOfExhaustive(t *testing.T) {
	visited := map[string]bool{}
	var mu sync.Mutex
	ex, err := verify.Run(verify.Config{
		Procs:        2,
		ChoicePoints: true,
		MixingBound:  verify.Unbounded,
		OnInterleaving: func(r *verify.InterleavingResult) {
			mu.Lock()
			visited[r.Decisions.String()] = true
			mu.Unlock()
		},
	}, pollProgram)
	if err != nil {
		t.Fatalf("exhaustive run: %v", err)
	}
	res, err := verify.Run(sampleCfg(3), pollProgram)
	if err != nil {
		t.Fatalf("sampled run: %v", err)
	}
	for _, v := range res.SampledSchedules {
		if !visited[v] {
			t.Errorf("sampled vector %s not visited by the exhaustive exploration", v)
		}
	}
	exErrs := map[string]bool{}
	for _, l := range errorLines(ex) {
		exErrs[l] = true
	}
	for _, l := range errorLines(res) {
		if !exErrs[l] {
			t.Errorf("sampled verdict %q not confirmed by the exhaustive exploration", l)
		}
	}
}

// TestSampleClusterMatchesSerial: a sampling exploration farmed over the
// coordinator/worker cluster derives the identical seeded schedule set (and
// verdicts) a serial sampled run does.
func TestSampleClusterMatchesSerial(t *testing.T) {
	serial, err := verify.Run(sampleCfg(7), pollProgram)
	if err != nil {
		t.Fatalf("serial run: %v", err)
	}

	ccfg := verify.ClusterConfig{
		Config:   sampleCfg(7),
		Workload: "iprobe",
		Addr:     "127.0.0.1:0",
	}
	c, err := verify.Serve(ccfg)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	wcfg := ccfg
	wcfg.Addr = c.Addr().String()
	var wg sync.WaitGroup
	var ws []*verify.Worker
	for i := 0; i < 2; i++ {
		wcfg.WorkerName = string(rune('a' + i))
		w, err := verify.Join(wcfg, pollProgram)
		if err != nil {
			t.Fatalf("Join: %v", err)
		}
		ws = append(ws, w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(); err != nil {
				t.Errorf("worker: %v", err)
			}
		}()
	}
	res, err := c.Wait()
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	// The job is a handful of replays: it can finish on the first worker
	// before the second has dialed, and a late worker would redial the closed
	// listener until its dial budget ran out.
	for _, w := range ws {
		w.Stop()
	}
	wg.Wait()

	if res.Sampled != serial.Sampled || res.SampledDistinct != serial.SampledDistinct {
		t.Errorf("cluster sampled %d/%d, serial %d/%d",
			res.Sampled, res.SampledDistinct, serial.Sampled, serial.SampledDistinct)
	}
	if !reflect.DeepEqual(res.SampledSchedules, serial.SampledSchedules) {
		t.Errorf("schedule sets differ:\ncluster: %v\nserial:  %v",
			res.SampledSchedules, serial.SampledSchedules)
	}
	if !reflect.DeepEqual(errorLines(res), errorLines(serial)) {
		t.Errorf("verdicts differ:\ncluster: %v\nserial:  %v",
			errorLines(res), errorLines(serial))
	}
}
