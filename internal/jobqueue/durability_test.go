package jobqueue

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dampi/internal/core"
	"dampi/internal/dcoord"
	"dampi/internal/dexplore"
)

// checkpointFiles lists what is under the store's ckp/ directory.
func checkpointFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(dir, ckpDir))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestCompleteJobCostsFiveFsyncs counts what a job that runs to completion
// makes durable: three WAL records (submitted, running, finished) and one
// file (the report, and the directory its rename is in), and no checkpoint —
// it is over before a first periodic one falls due, and its last cut has no
// reader. The count, not a time, is what a later "one more small fsync" has
// to change to get in.
func TestCompleteJobCostsFiveFsyncs(t *testing.T) {
	const jobs = 10
	f := newTestFactory()
	dir := t.TempDir()
	h := startHarness(t, dir, f, 2, 1, 0)
	defer h.api.Close()
	defer h.stopWorkers()

	wal0, file0 := h.store.Syncs()
	for i := 0; i < jobs; i++ {
		spec := dcoord.JobSpec{Workload: "fanin", Procs: 4, Space: dexplore.Space{MixingBound: core.Unbounded}, MaxInterleavings: 1000 + i}
		j, dup, err := h.svc.Submit(spec, 0)
		if err != nil || dup {
			t.Fatalf("submit %d: dup=%v err=%v", i, dup, err)
		}
		if got := waitJobTerminal(t, h.store, j.ID); got.State != Done || !got.HasReport || got.Attempts != 1 {
			t.Fatalf("job %s = %+v, want done with a report after one attempt", j.ID, got)
		}
	}
	h.svc.Stop() // runOne has returned: the last job's bookkeeping is over
	<-h.runDone
	wal, file := h.store.Syncs()
	// Stop's snapshot is one more file, and its directory.
	if wal-wal0 != 3*jobs || file-file0 != 2*jobs+2 {
		t.Errorf("%d jobs cost %d WAL and %d file fsyncs, want 3 and 2 each (and the shutdown snapshot's 2)", jobs, wal-wal0, file-file0-2)
	}
	if n := h.server.CheckpointsWritten(); n != 0 {
		t.Errorf("%d checkpoints written for jobs that ran to completion, want none", n)
	}
	if left := checkpointFiles(t, dir); len(left) != 0 {
		t.Errorf("ckp/ holds %v after every job finished", left)
	}
}

// TestFinishedJobLeavesNoCheckpoint: a job long enough to write periodic
// checkpoints (here: every merged lease) finishes with none on disk — the
// report supersedes them, and once RunJob has returned no late write can
// bring one back.
func TestFinishedJobLeavesNoCheckpoint(t *testing.T) {
	f := newTestFactory()
	dir := t.TempDir()
	h := startHarness(t, dir, f, 2, 1, 1)
	defer h.api.Close()
	defer h.stopWorkers()
	spec := dcoord.JobSpec{Workload: "slowfanin", Procs: 4, Space: dexplore.Space{MixingBound: core.Unbounded}}
	j, _, err := h.svc.Submit(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := waitJobTerminal(t, h.store, j.ID); got.State != Done {
		t.Fatalf("job = %+v, want done", got)
	}
	h.svc.Stop()
	<-h.runDone
	if n := h.server.CheckpointsWritten(); n == 0 {
		t.Error("fixture: the job wrote no periodic checkpoint")
	}
	if left := checkpointFiles(t, dir); len(left) != 0 {
		t.Errorf("ckp/ holds %v after the job finished", left)
	}
}

// TestFailedJobLeavesNoCheckpoint: a job that fails after writing periodic
// checkpoints — canceled mid-run, drained past its TTL, or ended by a worker's
// fatal result — leaves none on disk either: a failed job is never resumed, so
// the file had no reader, and it used to stay until DELETE /jobs/{id}.
func TestFailedJobLeavesNoCheckpoint(t *testing.T) {
	for _, tc := range []struct {
		name, workload string
		ttl            time.Duration
		strike         func(h *harness, id string)
		wantError      string
	}{
		{name: "canceled", workload: "slowfanin", wantError: "canceled", strike: func(h *harness, id string) {
			if ok, err := h.svc.Cancel(id); err != nil || !ok {
				h.t.Fatalf("cancel: ok=%v err=%v", ok, err)
			}
		}},
		{name: "ttl", workload: "slowfanin", ttl: time.Minute, wantError: ttlExpired, strike: func(h *harness, id string) {
			h.ahead.Store(int64(2 * time.Minute))
		}},
		{name: "fatal worker result", workload: "brokenfanin", wantError: "replay harness broke", strike: func(*harness, string) {}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newTestFactory()
			dir := t.TempDir()
			h := startHarness(t, dir, f, 1, 1, 1)
			defer h.api.Close()
			defer h.stopWorkers()
			j, _, err := h.svc.Submit(dcoord.JobSpec{Workload: tc.workload, Procs: 5, Space: dexplore.Space{MixingBound: core.Unbounded}}, tc.ttl)
			if err != nil {
				t.Fatal(err)
			}
			waitRunningProgress(t, h, j.ID, 3)
			tc.strike(h, j.ID)
			if got := waitJobTerminal(t, h.store, j.ID); got.State != Failed || !strings.Contains(got.Error, tc.wantError) {
				t.Fatalf("job = %s (%q), want failed (%s)", got.State, got.Error, tc.wantError)
			}
			h.svc.Stop() // runOne has returned
			<-h.runDone
			if n := h.server.CheckpointsWritten(); n == 0 {
				t.Error("fixture: the job wrote no periodic checkpoint before it failed")
			}
			if left := checkpointFiles(t, dir); len(left) != 0 {
				t.Errorf("ckp/ holds %v after the job failed", left)
			}
		})
	}
}

// TestCrashPointsAtAJobsEnd: the end of a job is an unsynced Merging record,
// a durable report file and one durable Finish record. A crash at each point
// between them leaves a store that reopens to one of two things — the job
// queued again, to be re-run to the same report on its second attempt, or the
// job done with its report — and never to a done job without a report, or to
// a queued job whose saved report is the last anyone sees of its result.
func TestCrashPointsAtAJobsEnd(t *testing.T) {
	f := newTestFactory()
	spec := dcoord.JobSpec{Workload: "fanin", Procs: 4, Space: dexplore.Space{MixingBound: core.Unbounded}}
	want := serialReport(t, f, spec)

	// One clean run, read while the service is still up: its journal holds the
	// job's four records in order (Stop's snapshot would truncate it), its
	// reports/ the report.
	clean := t.TempDir()
	h := startHarness(t, clean, f, 1, 1, 0)
	j, _, err := h.svc.Submit(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := waitJobTerminal(t, h.store, j.ID); got.State != Done {
		t.Fatalf("clean run = %+v", got)
	}
	journal, err := os.ReadFile(filepath.Join(clean, walFile))
	if err != nil {
		t.Fatal(err)
	}
	report, err := os.ReadFile(filepath.Join(clean, reportsDir, j.ID+".json"))
	if err != nil {
		t.Fatal(err)
	}
	h.svc.Stop()
	<-h.runDone
	h.api.Close()
	h.stopWorkers()
	records := bytes.SplitAfter(journal, []byte("\n"))
	if len(records) != 5 || len(records[4]) != 0 {
		t.Fatalf("the clean run's journal has %d lines, want submitted, running, merging, done:\n%s", len(records)-1, journal)
	}

	for _, tc := range []struct {
		name     string
		records  int    // journal lines that reached the disk
		torn     string // and what of the next one did
		report   bool   // the report file did
		attempts int    // attempts the job has made once it is done
	}{
		{name: "merging appended, lost with the crash", records: 2, attempts: 2},
		{name: "merging appended, torn by the crash", records: 2, torn: string(records[2][:len(records[2])/2]), attempts: 2},
		{name: "merging reached the disk by itself", records: 3, attempts: 2},
		{name: "report saved, merging lost", records: 2, report: true, attempts: 2},
		{name: "report saved, merging kept", records: 3, report: true, attempts: 2},
		{name: "report saved, finish torn", records: 3, torn: string(records[3][:len(records[3])/2]), report: true, attempts: 2},
		{name: "finished", records: 4, report: true, attempts: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, walFile), append(bytes.Join(records[:tc.records], nil), tc.torn...), 0o644); err != nil {
				t.Fatal(err)
			}
			if tc.report {
				if err := os.MkdirAll(filepath.Join(dir, reportsDir), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, reportsDir, j.ID+".json"), report, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			peek := openTestStore(t, dir, 0)
			got, ok := peek.Get(j.ID)
			switch {
			case !ok:
				t.Fatal("the acknowledged job is gone")
			case got.State == Done:
				if _, err := peek.LoadReport(j.ID); err != nil || !got.HasReport || tc.attempts != 1 {
					t.Errorf("reopened to %+v (report: %v), want a done job only with its report", got, err)
				}
			case got.State != Queued || got.HasReport || got.Attempts != 1:
				t.Errorf("reopened to %+v, want the job queued again after its one attempt", got)
			}
			peek.Close()

			h := startHarness(t, dir, f, 1, 1, 0)
			defer h.api.Close()
			defer h.stopWorkers()
			got = waitJobTerminal(t, h.store, j.ID)
			if got.State != Done || !got.HasReport || got.Attempts != tc.attempts {
				t.Fatalf("job = %+v, want done with a report after %d attempts", got, tc.attempts)
			}
			rep, err := h.store.LoadReport(j.ID)
			if err != nil {
				t.Fatal(err)
			}
			checkSameJobReport(t, tc.name, want, rep)
			h.svc.Stop()
			<-h.runDone
			if left := checkpointFiles(t, dir); len(left) != 0 {
				t.Errorf("ckp/ holds %v after the job finished", left)
			}
		})
	}
}

// TestStoreSyncsPerRecord pins which records are fsynced: every one but the
// edge into Merging, which recovery does not tell from Running; and Finish,
// the one record a job ends in, is legal only where Done is.
func TestStoreSyncsPerRecord(t *testing.T) {
	s := openTestStore(t, t.TempDir(), 0)
	defer s.Close()
	rep := &JobReport{Workload: "fanin", Procs: 3, Interleavings: 7, Deadlocks: 1}
	wal, file := s.Syncs()
	step := func(what string, dWAL, dFile int64, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		w, f := s.Syncs()
		if w-wal != dWAL || f-file != dFile {
			t.Errorf("%s cost %d WAL and %d file fsyncs, want %d and %d", what, w-wal, f-file, dWAL, dFile)
		}
		wal, file = w, f
	}
	j, _, err := s.Submit(testSpec(3), 0)
	step("submit", 1, 0, err)
	if _, err := s.Finish(j.ID, rep); err == nil {
		t.Error("a queued job was finished")
	}
	_, err = s.SetState(j.ID, Running, "")
	step("running", 1, 0, err)
	_, err = s.SetState(j.ID, Merging, "")
	step("merging", 0, 0, err)
	step("the report", 0, 2, s.SaveReport(j.ID, rep))
	done, err := s.Finish(j.ID, rep)
	step("finish", 1, 0, err)
	if done.State != Done || !done.HasReport || done.Interleavings != 7 || done.Deadlocks != 1 || done.FinishedAt.IsZero() {
		t.Errorf("finished job = %+v, want done, stamped, with its summary", done)
	}
	if _, err := s.Finish(j.ID, rep); err == nil {
		t.Error("a done job was finished again")
	}
}
