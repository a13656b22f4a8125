package jobqueue

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"dampi/internal/core"
	"dampi/internal/dcoord"
	"dampi/internal/dexplore"
)

// testSpec builds a valid job spec; procs varies the dedup key.
func testSpec(procs int) dcoord.JobSpec {
	return dcoord.JobSpec{
		Workload: "fanin",
		Procs:    procs,
		Space:    dexplore.Space{Clock: core.Lamport, Transport: core.Separate, MixingBound: 1},
	}
}

func openTestStore(t *testing.T, dir string, every int) *Store {
	t.Helper()
	s, err := OpenStore(StoreConfig{Dir: dir})
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	if every > 0 {
		s.snapshotEvery = every
	}
	return s
}

func TestStoreSubmitAssignsSequentialIDs(t *testing.T) {
	s := openTestStore(t, t.TempDir(), 0)
	defer s.Close()
	j1, dup, err := s.Submit(testSpec(3), 0)
	if err != nil || dup {
		t.Fatalf("submit 1: job=%v dup=%v err=%v", j1, dup, err)
	}
	j2, dup, err := s.Submit(testSpec(4), 0)
	if err != nil || dup {
		t.Fatalf("submit 2: job=%v dup=%v err=%v", j2, dup, err)
	}
	if j1.ID != "j000001" || j2.ID != "j000002" {
		t.Errorf("IDs = %s, %s; want j000001, j000002", j1.ID, j2.ID)
	}
	if j1.State != Queued || j1.SpecKey == "" {
		t.Errorf("submitted job = %+v; want queued with a spec key", j1)
	}
}

func TestStoreSubmitRejectsInvalidSpec(t *testing.T) {
	s := openTestStore(t, t.TempDir(), 0)
	defer s.Close()
	if _, _, err := s.Submit(dcoord.JobSpec{Procs: 3}, 0); err == nil {
		t.Error("spec without a workload name was accepted")
	}
	if _, _, err := s.Submit(dcoord.JobSpec{Workload: "fanin", Procs: 0}, 0); err == nil {
		t.Error("spec with zero procs was accepted")
	}
}

// TestStoreSubmitDedup: an identical spec maps onto the active job instead of
// queueing the same exploration twice — but once that job is terminal, a new
// submission is a genuinely new job.
func TestStoreSubmitDedup(t *testing.T) {
	s := openTestStore(t, t.TempDir(), 0)
	defer s.Close()
	j1, _, err := s.Submit(testSpec(3), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Normalization must participate in the key: Scale 0 means 100.
	spec := testSpec(3)
	spec.Scale = 100
	spec.Iters = 4
	j2, dup, err := s.Submit(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !dup || j2.ID != j1.ID {
		t.Errorf("normalized duplicate: got job %s dup=%v, want %s dup=true", j2.ID, dup, j1.ID)
	}
	if _, err := s.SetState(j1.ID, Running, ""); err != nil {
		t.Fatal(err)
	}
	if _, dup, _ = s.Submit(testSpec(3), 0); !dup {
		t.Error("running job did not dedup")
	}
	if _, err := s.SetState(j1.ID, Failed, "boom"); err != nil {
		t.Fatal(err)
	}
	j3, dup, err := s.Submit(testSpec(3), 0)
	if err != nil {
		t.Fatal(err)
	}
	if dup || j3.ID == j1.ID {
		t.Errorf("resubmission after terminal state: got %s dup=%v, want a fresh job", j3.ID, dup)
	}
}

func TestStoreStateMachine(t *testing.T) {
	s := openTestStore(t, t.TempDir(), 0)
	defer s.Close()
	j, _, err := s.Submit(testSpec(3), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SetState(j.ID, Merging, ""); err == nil {
		t.Error("queued → merging was allowed")
	}
	if _, err := s.SetState(j.ID, Done, ""); err == nil {
		t.Error("queued → done was allowed")
	}
	cur, err := s.SetState(j.ID, Running, "")
	if err != nil {
		t.Fatal(err)
	}
	if cur.Attempts != 1 || cur.StartedAt.IsZero() {
		t.Errorf("running job = attempts %d startedAt %v; want 1, stamped", cur.Attempts, cur.StartedAt)
	}
	if _, err := s.SetState(j.ID, Merging, ""); err != nil {
		t.Fatal(err)
	}
	cur, err = s.SetState(j.ID, Done, "")
	if err != nil {
		t.Fatal(err)
	}
	if cur.FinishedAt.IsZero() {
		t.Error("done job has no FinishedAt")
	}
	if _, err := s.SetState(j.ID, Running, ""); err == nil {
		t.Error("done → running was allowed")
	}
	if _, err := s.SetState(j.ID, Failed, "x"); err == nil {
		t.Error("done → failed was allowed")
	}
}

// TestFailedWALWriteChangesNothing: a mutation whose journal record cannot
// be written returns the error and leaves the jobs as Get, List and Counts
// showed them — memory never runs ahead of the WAL. The WAL is made
// unwritable by closing its file under the store.
func TestFailedWALWriteChangesNothing(t *testing.T) {
	s := openTestStore(t, t.TempDir(), 0)
	defer s.Close()
	queued, _, err := s.Submit(testSpec(3), 0)
	if err != nil {
		t.Fatal(err)
	}
	merging, _, err := s.Submit(testSpec(4), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, to := range []State{Running, Merging} {
		if _, err := s.SetState(merging.ID, to, ""); err != nil {
			t.Fatal(err)
		}
	}
	seen := func() string {
		var b strings.Builder
		for _, j := range s.List() {
			got, _ := s.Get(j.ID)
			fmt.Fprintf(&b, "%s %s attempts=%d interleavings=%d report=%v; ", got.ID, got.State, got.Attempts, got.Interleavings, got.HasReport)
		}
		c := s.Counts()
		fmt.Fprintf(&b, "queued=%d running=%d merging=%d done=%d failed=%d", c[Queued], c[Running], c[Merging], c[Done], c[Failed])
		return b.String()
	}
	before := seen()
	if err := s.wal.Close(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		mutate func() error
	}{
		{"SetState", func() error { _, err := s.SetState(queued.ID, Running, ""); return err }},
		{"Finish", func() error { _, err := s.Finish(merging.ID, &JobReport{Interleavings: 7}); return err }},
		{"Submit", func() error { _, _, err := s.Submit(testSpec(5), 0); return err }},
	} {
		if err := tc.mutate(); err == nil || !strings.Contains(err.Error(), "wal") {
			t.Errorf("%s with an unwritable WAL: err %v, want the write's", tc.name, err)
		}
		if after := seen(); after != before {
			t.Errorf("%s with an unwritable WAL changed the jobs:\n%s\nwas\n%s", tc.name, after, before)
		}
	}
}

// TestStoreRecovery: reopening the store reverts in-flight jobs to queued
// with their attempt count intact (so the service resumes from checkpoints),
// and leaves terminal jobs untouched.
func TestStoreRecovery(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, 0)
	jQueued, _, _ := s.Submit(testSpec(3), 0)
	jRunning, _, _ := s.Submit(testSpec(4), 0)
	jDone, _, _ := s.Submit(testSpec(5), 0)
	if _, err := s.SetState(jRunning.ID, Running, ""); err != nil {
		t.Fatal(err)
	}
	for _, st := range []State{Running, Merging, Done} {
		if _, err := s.SetState(jDone.ID, st, ""); err != nil {
			t.Fatal(err)
		}
	}
	s.Close() // no final snapshot: recovery must work from the WAL alone

	r := openTestStore(t, dir, 0)
	defer r.Close()
	got, ok := r.Get(jRunning.ID)
	if !ok || got.State != Queued || got.Attempts != 1 {
		t.Errorf("recovered running job = %+v; want queued with attempts=1", got)
	}
	if got, _ := r.Get(jQueued.ID); got.State != Queued {
		t.Errorf("queued job became %s", got.State)
	}
	if got, _ := r.Get(jDone.ID); got.State != Done {
		t.Errorf("done job became %s", got.State)
	}
	counts := r.Counts()
	if counts[Queued] != 2 || counts[Done] != 1 {
		t.Errorf("counts = %v", counts)
	}
	// Oldest queued wins dispatch.
	next, ok := r.NextQueued()
	if !ok || next.ID != jQueued.ID {
		t.Errorf("NextQueued = %v, want %s", next, jQueued.ID)
	}
}

// TestStoreSnapshotTruncatesWAL: crossing snapshotEvery must fold the journal
// into snapshot.json and restart the WAL, and a reopen from that layout sees
// the same jobs.
func TestStoreSnapshotTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, 4)
	for i := 0; i < 5; i++ {
		if _, _, err := s.Submit(testSpec(3+i), 0); err != nil {
			t.Fatal(err)
		}
	}
	info, err := os.Stat(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	// 5 submissions with snapshotEvery=4: the 4th triggered the snapshot, so
	// only the 5th lives in the restarted journal.
	if info.Size() == 0 {
		t.Error("WAL empty; the post-snapshot record is missing")
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotFile)); err != nil {
		t.Fatalf("snapshot file missing: %v", err)
	}
	s.Close()

	r := openTestStore(t, dir, 0)
	defer r.Close()
	if got := len(r.List()); got != 5 {
		t.Errorf("reopened store has %d jobs, want 5", got)
	}
}

// TestSnapshotCostStaysLinearInHistory: done jobs stay in the store, and a
// snapshot encodes every job it holds. Over 4 000 jobs submitted and
// finished one after another, all snapshots together encode a small multiple
// of 4 000 jobs: a snapshot waits for as many WAL records as the store holds
// jobs. (Snapshotting every 256 records encodes about 125 000.)
func TestSnapshotCostStaysLinearInHistory(t *testing.T) {
	if testing.Short() {
		t.Skip("4 000 jobs, three fsyncs each")
	}
	const cycles = 4000
	s := openTestStore(t, t.TempDir(), 0)
	defer s.Close()
	encoded := 0
	step := func(_ *Job, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if s.walRecords == 0 { // this record's append snapshotted the store
			encoded += len(s.jobs)
		}
	}
	for i := 0; i < cycles; i++ {
		j, _, err := s.Submit(testSpec(3), 0)
		step(j, err)
		step(s.SetState(j.ID, Running, ""))
		step(s.SetState(j.ID, Merging, ""))
		step(s.Finish(j.ID, &JobReport{}))
	}
	if encoded == 0 || encoded > 5*cycles {
		t.Errorf("snapshots encoded %d jobs over %d finished jobs, want at most %d", encoded, cycles, 5*cycles)
	}
}

// tornPut is what a crash mid-write leaves of a put record.
const tornPut = `{"op":"put","job":{"id":"j0000`

// appendWAL appends raw bytes to a closed store's journal, as a crash
// mid-write (or a damaged disk) leaves them.
func appendWAL(t *testing.T, dir, raw string) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, walFile), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteString(raw); err != nil {
		t.Fatal(err)
	}
}

// TestStoreTornWALTail: a crash can tear the final WAL write mid-line; replay
// keeps everything before it and discards the unacknowledged tail.
func TestStoreTornWALTail(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, 0)
	j, _, err := s.Submit(testSpec(3), 0)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	appendWAL(t, dir, tornPut)

	r := openTestStore(t, dir, 0)
	defer r.Close()
	if got, ok := r.Get(j.ID); !ok || got.State != Queued {
		t.Errorf("job lost to the torn tail: %v %v", got, ok)
	}
	if got := len(r.List()); got != 1 {
		t.Errorf("store has %d jobs, want 1", got)
	}
}

// TestTornWALTailIsCutBeforeAppend: what is appended after a torn tail was
// recovered from must survive the next restart. Reopening without truncating
// glued the next record onto the fragment, and the restart after that stopped
// at the glued line and dropped every acknowledged record behind it.
func TestTornWALTailIsCutBeforeAppend(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, 0)
	if _, _, err := s.Submit(testSpec(3), 0); err != nil {
		t.Fatal(err)
	}
	s.Close()
	appendWAL(t, dir, tornPut)

	r := openTestStore(t, dir, 0)
	for _, procs := range []int{4, 5} {
		if _, _, err := r.Submit(testSpec(procs), 0); err != nil {
			t.Fatal(err)
		}
	}
	r.Close()
	if wal, err := os.ReadFile(filepath.Join(dir, walFile)); err != nil || bytes.Contains(wal, []byte(tornPut+"{")) {
		t.Errorf("a record was appended behind the torn fragment (err=%v):\n%s", err, wal)
	}

	again := openTestStore(t, dir, 0)
	defer again.Close()
	if got := len(again.List()); got != 3 {
		t.Errorf("after the second restart the store has %d jobs, want 3", got)
	}
}

// TestDamagedWALRecordMidFileIsAnError: an undecodable line with records
// after it is not a torn write — what follows it was acknowledged — so the
// store refuses to open, naming the line, rather than drop it silently. The
// same line as the journal's last is a torn tail.
func TestDamagedWALRecordMidFileIsAnError(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, 0)
	if _, _, err := s.Submit(testSpec(3), 0); err != nil {
		t.Fatal(err)
	}
	s.Close()
	appendWAL(t, dir, tornPut+"\n")
	r := openTestStore(t, dir, 0) // damaged, but last: cut off
	if got := len(r.List()); got != 1 {
		t.Errorf("store has %d jobs, want 1", got)
	}
	r.Close()

	appendWAL(t, dir, tornPut+"\n"+`{"op":"delete","id":"j000001"}`+"\n")
	_, err := OpenStore(StoreConfig{Dir: dir})
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("OpenStore over a journal damaged mid-file = %v, want an error naming line 2", err)
	}
}

// TestStoreIDsNeverReused: the ID allocator must survive delete + snapshot +
// reopen, or a new job could collide with an old job's checkpoint and report
// files.
func TestStoreIDsNeverReused(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, 0)
	j1, _, _ := s.Submit(testSpec(3), 0)
	if _, err := s.SetState(j1.ID, Failed, "x"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(j1.ID); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	r := openTestStore(t, dir, 0)
	defer r.Close()
	j2, _, err := r.Submit(testSpec(3), 0)
	if err != nil {
		t.Fatal(err)
	}
	if j2.ID == j1.ID {
		t.Errorf("deleted ID %s was reissued", j1.ID)
	}
}

func TestStoreDeleteRefusesActive(t *testing.T) {
	s := openTestStore(t, t.TempDir(), 0)
	defer s.Close()
	j, _, _ := s.Submit(testSpec(3), 0)
	if err := s.Delete(j.ID); err == nil {
		t.Error("deleting a queued job succeeded")
	}
	if _, err := s.SetState(j.ID, Running, ""); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(j.ID); err == nil {
		t.Error("deleting a running job succeeded")
	}
	if _, err := s.SetState(j.ID, Failed, "x"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(j.ID); err != nil {
		t.Errorf("deleting a failed job: %v", err)
	}
	if _, ok := s.Get(j.ID); ok {
		t.Error("deleted job still present")
	}
}

// TestStoreTTLSweep drives the clock through the test seam: expired queued
// jobs fail in place, expired running jobs are reported for cancellation.
func TestStoreTTLSweep(t *testing.T) {
	s := openTestStore(t, t.TempDir(), 0)
	defer s.Close()
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	s.now = func() time.Time { return base }

	jShort, _, _ := s.Submit(testSpec(3), 10*time.Second)
	jRun, _, _ := s.Submit(testSpec(4), 10*time.Second)
	jLong, _, _ := s.Submit(testSpec(5), time.Hour)
	jForever, _, _ := s.Submit(testSpec(6), 0)
	if _, err := s.SetState(jRun.ID, Running, ""); err != nil {
		t.Fatal(err)
	}

	overdue, err := s.SweepExpired()
	if err != nil || len(overdue) != 0 {
		t.Fatalf("premature sweep: overdue=%v err=%v", overdue, err)
	}

	s.now = func() time.Time { return base.Add(30 * time.Second) }
	overdue, err = s.SweepExpired()
	if err != nil {
		t.Fatal(err)
	}
	if len(overdue) != 1 || overdue[0] != jRun.ID {
		t.Errorf("overdue = %v, want [%s]", overdue, jRun.ID)
	}
	if got, _ := s.Get(jShort.ID); got.State != Failed || got.Error != "ttl expired" {
		t.Errorf("expired queued job = %+v", got)
	}
	if got, _ := s.Get(jLong.ID); got.State != Queued {
		t.Errorf("hour-TTL job swept early: %s", got.State)
	}
	if got, _ := s.Get(jForever.ID); got.State != Queued {
		t.Errorf("no-TTL job swept: %s", got.State)
	}
}

func TestStoreReportRoundtrip(t *testing.T) {
	s := openTestStore(t, t.TempDir(), 0)
	defer s.Close()
	j, _, _ := s.Submit(testSpec(3), 0)
	rep := &JobReport{Workload: "fanin", Procs: 3, Interleavings: 7, ElapsedSec: 1.5}
	if err := s.SaveReport(j.ID, rep); err != nil {
		t.Fatal(err)
	}
	got, err := s.LoadReport(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Workload != "fanin" || got.Procs != 3 || got.Interleavings != 7 || got.ElapsedSec != 1.5 {
		t.Errorf("report roundtrip = %+v", got)
	}
	if _, err := s.LoadReport("j999999"); err == nil {
		t.Error("loading a missing report succeeded")
	}
}

// FuzzOpenStore: arbitrary journal and snapshot bytes open to an error or to
// a store holding every record that precedes the damage — never a panic, never
// fewer — and what such a store then acknowledges survives the next restart.
// The oracle is the format's definition, not the loader: newline-terminated
// JSON records, applied in order until the first line that does not decode.
func FuzzOpenStore(f *testing.F) {
	dir := f.TempDir()
	s, err := OpenStore(StoreConfig{Dir: dir})
	if err != nil {
		f.Fatal(err)
	}
	j1, _, _ := s.Submit(testSpec(3), 0)
	if _, _, err := s.Submit(testSpec(4), time.Minute); err != nil {
		f.Fatal(err)
	}
	if _, err := s.SetState(j1.ID, Running, ""); err != nil {
		f.Fatal(err)
	}
	s.Close()
	clean, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		f.Fatal(err)
	}
	// The same job's end: Merging is appended without an fsync of its own, and
	// Finish's carries it.
	if s, err = OpenStore(StoreConfig{Dir: dir}); err != nil {
		f.Fatal(err)
	}
	for _, to := range []State{Running, Merging} {
		if _, err := s.SetState(j1.ID, to, ""); err != nil {
			f.Fatal(err)
		}
	}
	if _, err := s.Finish(j1.ID, &JobReport{Interleavings: 7}); err != nil {
		f.Fatal(err)
	}
	s.Close()
	ended, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		f.Fatal(err)
	}
	snap := []byte(`{"version":1,"next_id":9,"jobs":[{"id":"j000007","state":"done"}]}`)
	f.Add(clean, []byte(nil))
	f.Add(clean, snap)
	f.Add(append(bytes.Clone(clean), tornPut...), snap)                                             // torn tail
	f.Add(append(append(bytes.Clone(clean), tornPut...), clean...), []byte(nil))                    // a record glued onto it
	f.Add(append(bytes.Clone(clean), `{"op":"delete","id":"j000002"}`+"\n\n"...), snap)             // delete, blank line
	f.Add([]byte(`{"op":"put"}`+"\n"+`{"op":"put","job":null}`+"\n7\n"), []byte(`{"jobs":[null]}`)) // null jobs
	f.Add(ended, []byte(nil))                                                                       // a synced record (done) behind an unsynced one (merging)
	f.Add(ended[:len(ended)-len(ended)/8], snap)                                                    // and torn
	f.Fuzz(func(t *testing.T, wal, snap []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walFile), wal, 0o644); err != nil {
			t.Fatal(err)
		}
		if snap != nil {
			if err := os.WriteFile(filepath.Join(dir, snapshotFile), snap, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s, err := OpenStore(StoreConfig{Dir: dir})
		if err != nil {
			return
		}
		want := map[string]bool{}
		var sn snapshot
		if json.Unmarshal(snap, &sn) == nil {
			for _, j := range sn.Jobs {
				want[j.ID] = true
			}
		}
		for rest := wal; ; {
			line, after, ok := bytes.Cut(rest, []byte("\n"))
			var rec walRecord
			if !ok || (len(line) > 0 && json.Unmarshal(line, &rec) != nil) {
				break
			}
			if rec.Op == "put" && rec.Job != nil {
				want[rec.Job.ID] = true
			} else if rec.Op == "delete" {
				delete(want, rec.ID)
			}
			rest = after
		}
		check := func(s *Store, when string) {
			got := map[string]bool{}
			for _, j := range s.List() {
				got[j.ID] = true
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s the store holds %v, want %v", when, got, want)
			}
		}
		check(s, "opened,")
		j, _, err := s.Submit(testSpec(3), 0)
		if err != nil {
			t.Fatalf("submit to the recovered store: %v", err)
		}
		want[j.ID] = true
		s.Close()
		if s, err = OpenStore(StoreConfig{Dir: dir}); err != nil {
			t.Fatalf("reopening the recovered store: %v", err)
		}
		defer s.Close()
		check(s, "reopened,")
	})
}
