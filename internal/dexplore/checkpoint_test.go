package dexplore

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"dampi/internal/core"
	"dampi/workloads/adlb"
	"dampi/workloads/matmul"
)

// TestCheckpointJSONRoundTrip: a checkpoint survives Save/Load byte-exactly
// in every field the engine reads back, and frontier decision prefixes
// round-trip through the core.Decisions JSON format.
func TestCheckpointJSONRoundTrip(t *testing.T) {
	d := core.NewDecisions()
	d.Force(core.EpochID{Rank: 1, LC: 7}, 3)
	d.Force(core.EpochID{Rank: 0, LC: 2}, 1)
	ckp := &Checkpoint{
		Version: checkpointVersion,
		Procs:   6,
		Space:   Space{Clock: core.VectorClock, DualClock: true, Transport: core.Inband, MixingBound: 2, AutoLoopThreshold: 5},
		Report: core.Report{
			Interleavings:     11,
			Deadlocks:         1,
			DecisionPoints:    9,
			AutoAbstracted:    4,
			WildcardsAnalyzed: 3,
			Errors:            []*core.InterleavingResult{{Err: errors.New("boom"), Deadlock: true, Decisions: d.Clone()}},
		},
		Frontier: []*core.SubtreeTask{
			{Decisions: d, Budget: 1, Explorable: true},
			{Decisions: nil, Budget: core.Unbounded, Explorable: false},
		},
	}
	path := filepath.Join(t.TempDir(), "ckp.json")
	if err := ckp.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != ckp.Version || got.Procs != ckp.Procs || got.Space != ckp.Space {
		t.Errorf("fingerprint mismatch: got %+v", got)
	}
	if got.Interleavings != 11 || got.Deadlocks != 1 || got.DecisionPoints != 9 ||
		got.AutoAbstracted != 4 || got.WildcardsAnalyzed != 3 {
		t.Errorf("aggregates mismatch: got %+v", got)
	}
	if len(got.Errors) != 1 || got.Errors[0].Err.Error() != "boom" || !got.Errors[0].Deadlock ||
		got.Errors[0].Decisions.String() != d.String() {
		t.Errorf("errors mismatch: got %+v", got.Errors)
	}
	if len(got.Frontier) != 2 {
		t.Fatalf("frontier length = %d, want 2", len(got.Frontier))
	}
	if got.Frontier[0].Decisions.String() != d.String() || got.Frontier[0].Budget != 1 || !got.Frontier[0].Explorable {
		t.Errorf("frontier[0] mismatch: %+v", got.Frontier[0])
	}
	if !got.Frontier[1].Decisions.Empty() || got.Frontier[1].Budget != core.Unbounded || got.Frontier[1].Explorable {
		t.Errorf("frontier[1] mismatch: %+v", got.Frontier[1])
	}
}

// TestFailedSaveKeepsPreviousCheckpoint: Save replaces the file only with
// bytes that were written, fsynced and closed under another name. A write
// that fails half way (a failed fsync takes the same exit) leaves the
// checkpoint of the save before it loadable and no temporary file behind.
func TestFailedSaveKeepsPreviousCheckpoint(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckp.json")
	good := &Checkpoint{Version: checkpointVersion, Procs: 3, Report: core.Report{Interleavings: 11}}
	if err := good.Save(path); err != nil {
		t.Fatal(err)
	}
	full := errors.New("no space left on device")
	err := ReplaceFile(path, func(w io.Writer) error {
		if _, err := io.WriteString(w, `{"version": 1, "procs"`); err != nil {
			return err
		}
		return full
	})
	if !errors.Is(err, full) {
		t.Fatalf("ReplaceFile returned %v, want the write's error", err)
	}
	got, err := LoadCheckpoint(path)
	if err != nil || got.Interleavings != 11 {
		t.Fatalf("after a failed save the checkpoint loads as %+v, %v; want the previous one", got, err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("a failed save left %d files in the directory, want the checkpoint alone", len(entries))
	}
	if err := good.Save(filepath.Join(dir, "missing", "ckp.json")); err == nil {
		t.Fatal("Save into a directory that does not exist succeeded")
	}
}

// TestReportSurvivesCheckpoint: the codec is lossless on the report side —
// every aggregate of a report comes back deep-equal from Report →
// NewCheckpoint → JSON → Restore, along with the frontier.
func TestReportSurvivesCheckpoint(t *testing.T) {
	d := core.NewDecisions()
	d.Force(core.EpochID{Rank: 1, LC: 7}, 3)
	trace := &core.RunTrace{
		Epochs: []*core.EpochRecord{{Rank: 1, LC: 7, Tag: 2, Chosen: 0, Alternates: []int{3}, Order: 1}},
		Unsafe: []core.UnsafeReport{{Rank: 1, LC: 7, Op: "Send", Count: 1}},
		MaxLC:  7,
	}
	rep := &core.Report{
		Interleavings:     11,
		Deadlocks:         1,
		DecisionPoints:    9,
		AutoAbstracted:    4,
		WildcardsAnalyzed: 1,
		Errors: []*core.InterleavingResult{
			{Err: errors.New("boom"), Deadlock: true, Decisions: d.Clone()},
			{Err: errors.New("bang"), Decisions: core.NewDecisions()},
		},
		Unsafe:           trace.Unsafe,
		Sampled:          3,
		SampledDistinct:  2,
		SampledSchedules: []string{"{r0:[1→2]}", "{r1:[7→3]}"},
		FirstTrace:       trace,
	}
	frontier := []*core.SubtreeTask{
		{Decisions: d, Budget: 1, Explorable: true, Depth: 2},
		{Decisions: d.Clone(), Budget: core.Unbounded, Explorable: true, Depth: 3,
			Sample: &core.SampleState{Walk: 1, Step: 2, Rng: 99, Prio: []int{2, 0, 1}, NextChange: 3}},
	}
	cfg := core.ExplorerConfig{Procs: 4, Clock: core.VectorClock, MixingBound: 2}

	var buf bytes.Buffer
	if err := NewCheckpoint("wl", &cfg, rep, frontier).Write(&buf); err != nil {
		t.Fatal(err)
	}
	ckp, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, gotFrontier, err := ckp.Restore("wl", &cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rep) {
		t.Errorf("report changed across the checkpoint:\n got %+v\nwant %+v", got, rep)
	}
	if !reflect.DeepEqual(gotFrontier, frontier) {
		t.Errorf("frontier changed across the checkpoint:\n got %+v\nwant %+v", gotFrontier, frontier)
	}
}

// TestStaticPruningCheckpointRefused: checkpoints written while the explorer
// could skip branches on static hints carry static_pruned, prune_disabled
// and prune_violations. A nonzero static_pruned means the frontier lacks the
// skipped subtrees, so resuming it would print a clean verdict over an
// incomplete search: it is refused by name. The other two keys decode and
// are ignored, and none of the three is ever written.
func TestStaticPruningCheckpointRefused(t *testing.T) {
	cfg := core.ExplorerConfig{Procs: 4, MixingBound: 2}
	rep := &core.Report{Interleavings: 3, DecisionPoints: 2}
	var buf bytes.Buffer
	if err := NewCheckpoint("wl", &cfg, rep, []*core.SubtreeTask{core.RootTask(&cfg)}).Write(&buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte("prune")) {
		t.Fatalf("a checkpoint now writes a pruning key: %s", buf.Bytes())
	}
	const old = `"prune_disabled":true,"prune_violations":[{"key":{"Rank":1,"Tag":2,"Probe":false},"observed":0,"senders":[3]}],`
	for _, tc := range []struct {
		name, keys, want string // want "" = resumes
	}{
		{"disabled-and-violations", old, ""},
		{"pruned", `"static_pruned":5,` + old, "static_pruned=5"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			raw := bytes.Replace(buf.Bytes(), []byte(`{`), []byte(`{`+tc.keys), 1)
			ckp, err := ReadCheckpoint(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := ckp.Restore("wl", &cfg)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("refused: %v", err)
			case tc.want == "" && !reflect.DeepEqual(got, rep):
				t.Errorf("report changed across the old keys:\n got %+v\nwant %+v", got, rep)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Errorf("error %v, want one naming %q", err, tc.want)
			}
		})
	}
}

// TestResumeRejectsMismatchedConfig: a checkpoint only resumes under the
// exploration parameters that produced it.
func TestResumeRejectsMismatchedConfig(t *testing.T) {
	memo := newMemoRunner()
	base := core.ExplorerConfig{Procs: 4, Program: matmul.Program(matmul.Config{}), Runner: memo.Run}
	path := filepath.Join(t.TempDir(), "ckp.json")
	if _, err := New(Config{Explorer: base, Workers: 2, CheckpointPath: path}).Explore(); err != nil {
		t.Fatal(err)
	}
	ckp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := base
	bad.Procs = 5
	if _, err := New(Config{Explorer: bad, Workers: 2, Resume: ckp}).Explore(); err == nil {
		t.Error("resume with mismatched procs accepted")
	}
	bad = base
	bad.MixingBound = 3
	if _, err := New(Config{Explorer: bad, Workers: 2, Resume: ckp}).Explore(); err == nil {
		t.Error("resume with mismatched mixing bound accepted")
	}
	ckp.Version = checkpointVersion + 1
	if _, err := New(Config{Explorer: base, Workers: 2, Resume: ckp}).Explore(); err == nil {
		t.Error("resume with future checkpoint version accepted")
	}
}

// TestCheckpointResumeUnion is the satellite's contract: an exploration
// killed at the interleaving cap leaves a checkpoint whose resumption covers
// exactly the remaining interleavings — the union of the two partial runs
// equals the uninterrupted run's interleaving set (decision-signature
// equality on matmul).
func TestCheckpointResumeUnion(t *testing.T) {
	memo := newMemoRunner()
	cfg := core.ExplorerConfig{Procs: 6, Program: matmul.Program(matmul.Config{}), Runner: memo.Run}

	full := runParallel(t, cfg, 4)
	if full.rep.Interleavings <= 15 {
		t.Fatalf("fixture too small: %d interleavings", full.rep.Interleavings)
	}

	// Phase 1: explore up to the cap, checkpointing the frontier.
	path := filepath.Join(t.TempDir(), "ckp.json")
	killed := map[string]bool{}
	kcfg := cfg
	kcfg.MaxInterleavings = 15
	kcfg.OnInterleaving = func(res *core.InterleavingResult) { killed[res.Decisions.String()] = true }
	krep, err := New(Config{Explorer: kcfg, Workers: 4, CheckpointPath: path, CheckpointEvery: 3}).Explore()
	if err != nil {
		t.Fatal(err)
	}
	if krep.Interleavings != 15 {
		t.Fatalf("capped run explored %d interleavings, want 15", krep.Interleavings)
	}
	if !krep.Capped {
		t.Error("capped run did not set Capped")
	}

	ckp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(ckp.Frontier) == 0 {
		t.Fatal("final checkpoint has an empty frontier despite the cap")
	}
	if ckp.Interleavings != 15 {
		t.Fatalf("checkpoint records %d interleavings, want 15", ckp.Interleavings)
	}

	// Phase 2: resume from the checkpoint and drain the frontier.
	resumed := map[string]bool{}
	rcfg := cfg
	rcfg.OnInterleaving = func(res *core.InterleavingResult) { resumed[res.Decisions.String()] = true }
	rrep, err := New(Config{Explorer: rcfg, Workers: 4, Resume: ckp}).Explore()
	if err != nil {
		t.Fatal(err)
	}
	if rrep.Capped {
		t.Error("resumed run reports Capped with no cap configured")
	}
	if rrep.WildcardsAnalyzed != full.rep.WildcardsAnalyzed {
		t.Errorf("resumed R* = %d, want %d (carried through the checkpoint)",
			rrep.WildcardsAnalyzed, full.rep.WildcardsAnalyzed)
	}
	if rrep.FirstTrace == nil {
		t.Error("resumed run lost the canonical first trace")
	}

	// The final checkpoint of a drained engine has no in-flight tasks, so
	// resumption covers exactly the remainder: totals line up and the union
	// equals the uninterrupted set.
	if got, want := rrep.Interleavings, full.rep.Interleavings; got != want {
		t.Errorf("resumed total = %d interleavings, want %d", got, want)
	}
	union := map[string]bool{}
	for s := range killed {
		union[s] = true
	}
	for s := range resumed {
		union[s] = true
	}
	if len(union) != len(full.sigs) {
		t.Errorf("union covers %d interleavings, full run %d", len(union), len(full.sigs))
	}
	for s := range full.sigs {
		if !union[s] {
			t.Errorf("interleaving %s missing from killed+resumed union", s)
		}
	}
	for s := range union {
		if !full.sigs[s] {
			t.Errorf("interleaving %s not in the uninterrupted run", s)
		}
	}
}

// TestResumeAtLeastOnce: a checkpoint taken while tasks were in flight lists
// those tasks again (at-least-once coverage); resuming such a snapshot may
// re-run subtrees but still covers the full set.
func TestResumeAtLeastOnce(t *testing.T) {
	memo := newMemoRunner()
	cfg := core.ExplorerConfig{Procs: 6, Program: matmul.Program(matmul.Config{}), Runner: memo.Run}
	full := runParallel(t, cfg, 2)

	path := filepath.Join(t.TempDir(), "ckp.json")
	killed := map[string]bool{}
	kcfg := cfg
	kcfg.MaxInterleavings = 15
	kcfg.OnInterleaving = func(res *core.InterleavingResult) { killed[res.Decisions.String()] = true }
	if _, err := New(Config{Explorer: kcfg, Workers: 4, CheckpointPath: path}).Explore(); err != nil {
		t.Fatal(err)
	}
	ckp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(ckp.Frontier) == 0 {
		t.Fatal("empty frontier")
	}
	// Simulate an in-flight task at snapshot time: its subtree was merged
	// before the engine was killed, yet the snapshot still lists it.
	ckp.Frontier = append(ckp.Frontier, ckp.Frontier[0])

	resumed := map[string]bool{}
	rcfg := cfg
	rcfg.OnInterleaving = func(res *core.InterleavingResult) { resumed[res.Decisions.String()] = true }
	rrep, err := New(Config{Explorer: rcfg, Workers: 4, Resume: ckp}).Explore()
	if err != nil {
		t.Fatal(err)
	}
	if rrep.Interleavings < full.rep.Interleavings {
		t.Errorf("at-least-once resume explored %d < full %d", rrep.Interleavings, full.rep.Interleavings)
	}
	union := map[string]bool{}
	for s := range killed {
		union[s] = true
	}
	for s := range resumed {
		union[s] = true
	}
	for s := range full.sigs {
		if !union[s] {
			t.Errorf("interleaving %s missing from at-least-once union", s)
		}
	}
	for s := range union {
		if !full.sigs[s] {
			t.Errorf("interleaving %s not in the uninterrupted run", s)
		}
	}
}

// TestResumeRootStillPending: an engine stopped before its self-discovery
// run leaves a checkpoint whose frontier is the root task; resuming it means
// the root is not done, and the run covers the whole space.
func TestResumeRootStillPending(t *testing.T) {
	memo := newMemoRunner()
	cfg := core.ExplorerConfig{Procs: 6, Program: matmul.Program(matmul.Config{}), Runner: memo.Run}
	full := runParallel(t, cfg, 2)

	path := filepath.Join(t.TempDir(), "ckp.json")
	e := New(Config{Explorer: cfg, Workers: 2, CheckpointPath: path})
	e.Stop()
	rep, err := e.Explore()
	if err != nil {
		t.Fatal(err)
	}
	ckp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Interleavings != 0 || len(ckp.Frontier) != 1 || ckp.Frontier[0].Decisions != nil {
		t.Fatalf("stopped before the root: %d interleavings, frontier %+v; want 0 and the root task", rep.Interleavings, ckp.Frontier)
	}

	resumed := map[string]bool{}
	rcfg := cfg
	rcfg.OnInterleaving = func(res *core.InterleavingResult) { resumed[res.Decisions.String()] = true }
	rrep, err := New(Config{Explorer: rcfg, Workers: 2, Resume: ckp}).Explore()
	if err != nil {
		t.Fatal(err)
	}
	if rrep.Interleavings != full.rep.Interleavings || rrep.FirstTrace == nil || rrep.WildcardsAnalyzed != full.rep.WildcardsAnalyzed {
		t.Errorf("resumed from the root: %d interleavings, R* %d, trace %v; want %d, %d and the first trace",
			rrep.Interleavings, rrep.WildcardsAnalyzed, rrep.FirstTrace != nil, full.rep.Interleavings, full.rep.WildcardsAnalyzed)
	}
	for s := range full.sigs {
		if !resumed[s] {
			t.Errorf("interleaving %s missing from the run resumed at the root", s)
		}
	}
}

// TestPeriodicCheckpointWrites: with CheckpointEvery=1 a checkpoint exists on
// disk well before the exploration finishes (verified post-hoc: the final
// file must parse and carry the fingerprint).
func TestPeriodicCheckpointWrites(t *testing.T) {
	memo := newMemoRunner()
	path := filepath.Join(t.TempDir(), "ckp.json")
	cfg := core.ExplorerConfig{Procs: 6, Program: matmul.Program(matmul.Config{}), Runner: memo.Run}
	rep, err := New(Config{Explorer: cfg, Workers: 2, CheckpointPath: path, CheckpointEvery: 1}).Explore()
	if err != nil {
		t.Fatal(err)
	}
	ckp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if ckp.Interleavings != rep.Interleavings {
		t.Errorf("final checkpoint records %d interleavings, report %d", ckp.Interleavings, rep.Interleavings)
	}
	if len(ckp.Frontier) != 0 {
		t.Errorf("completed exploration left %d frontier tasks", len(ckp.Frontier))
	}
	// No stray temp files from the atomic-rename protocol.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != filepath.Base(path) {
			t.Errorf("stray checkpoint temp file %s", e.Name())
		}
	}
}

// TestLoadsParentCheckpoint: testdata/checkpoint_parent.json was written by
// `dampi -workload adlb -procs 6 -k 0 -max 4 -workers 1 -checkpoint` at the
// commit before core.Decisions became a sorted slice — map-ordered keys, "10"
// before "2". It loads unchanged: each frontier task's prefix holds exactly
// the decisions a reflective decode of the same bytes finds, and the resumed
// run reaches the total the parent binary reaches from the same file.
func TestLoadsParentCheckpoint(t *testing.T) {
	const path = "testdata/checkpoint_parent.json"
	ckp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.ExplorerConfig{Procs: 6, MixingBound: 0, Program: adlb.Program(adlb.DriverConfig{})}
	rep, frontier, err := ckp.Restore("", &cfg)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want struct {
		Frontier []struct {
			Decisions struct {
				ByRank map[string]map[string]int `json:"by_rank"`
			} `json:"decisions"`
		} `json:"frontier"`
	}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if rep.Interleavings != 4 || len(frontier) != 47 || len(want.Frontier) != 47 {
		t.Fatalf("restored %d interleavings and %d tasks (reflective: %d), want 4 and 47", rep.Interleavings, len(frontier), len(want.Frontier))
	}
	for i, task := range frontier {
		n := 0
		for rs, m := range want.Frontier[i].Decisions.ByRank {
			for lcs, src := range m {
				rank, _ := strconv.Atoi(rs)
				lc, _ := strconv.ParseUint(lcs, 10, 64)
				if got, ok := task.Decisions.Lookup(rank, lc); !ok || got != src {
					t.Errorf("task %d: Lookup(%d,%d) = %d,%v, the file says %d", i, rank, lc, got, ok, src)
				}
				n++
			}
		}
		if task.Decisions.Len() != n {
			t.Errorf("task %d: %d decisions, the file has %d", i, task.Decisions.Len(), n)
		}
	}
	const last = "{r0:[0→1 1→2 2→2 3→3 4→3 5→4 6→4 7→1 8→5 9→5 10→5 11→1] r2:[0→0] r5:[0→0]}"
	if got := frontier[len(frontier)-1].Decisions.String(); got != last {
		t.Errorf("last task = %s\nwant        %s", got, last)
	}
	// Resuming drains the frontier exactly as the parent binary does from the
	// same file: at k = 0 no frontier task may flip further, so the total is
	// the 4 replays done plus the 47 pending.
	resumed, err := New(Config{Explorer: cfg, Workers: 2, Resume: ckp}).Explore()
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Interleavings != 51 || resumed.Errored() {
		t.Errorf("resumed run: %d interleavings, %d errors; want 51 and none", resumed.Interleavings, len(resumed.Errors))
	}
}
