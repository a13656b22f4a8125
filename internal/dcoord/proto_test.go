package dcoord

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"dampi/internal/core"
	"dampi/internal/race"
)

// TestFrameRoundTrip: every frame shape survives the length-prefixed JSON
// codec byte-for-byte in meaning.
func TestFrameRoundTrip(t *testing.T) {
	fp := baseFingerprint()
	task := &core.SubtreeTask{Decisions: dec(1, 3, 0), Budget: 2, Explorable: true}
	child := &core.SubtreeTask{Decisions: dec(2, 1, 1), Budget: core.Unbounded, Explorable: true}
	failed := &core.Report{
		Interleavings: 3, DecisionPoints: 3, WildcardsAnalyzed: 5,
		Errors: []*core.InterleavingResult{{Index: 2, Err: errors.New("rank 2: assertion failed"), Decisions: dec(1, 3, 0)}},
	}
	frames := []*frame{
		{Type: msgHello, Proto: protoVersion, Worker: "w1", Slots: 4, Spec: &fp},
		{Type: msgWelcome, LeaseTTLMillis: 10000},
		{Type: msgReject, Reason: "dcoord: procs mismatch"},
		{Type: msgTask, Tasks: []wireTask{
			{Lease: 41, Keys: []string{rootKey}, Tasks: []*core.SubtreeTask{{Budget: core.Unbounded, Explorable: true}}, Budget: 1},
			{Lease: 42, Keys: []string{taskKey(task), taskKey(child)}, Tasks: []*core.SubtreeTask{task, child}},
		}},
		{Type: msgHeartbeat, Worker: "w1"},
		{Type: msgDone},
		{Type: msgResult, Result: &WireResult{Lease: 42, Keys: []string{taskKey(task)}, Delta: deltaOf(fp, failed, child)}},
	}
	for _, in := range frames {
		t.Run(in.Type, func(t *testing.T) {
			var buf bytes.Buffer
			if _, err := writeFrame(&buf, in); err != nil {
				t.Fatalf("write: %v", err)
			}
			out, _, err := readFrame(&buf, maxFrameSize)
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			if out.Type != in.Type || out.Proto != in.Proto || out.Worker != in.Worker ||
				out.Slots != in.Slots || out.Reason != in.Reason ||
				out.LeaseTTLMillis != in.LeaseTTLMillis {
				t.Errorf("scalar fields changed: %+v -> %+v", in, out)
			}
			if in.Spec != nil && *out.Spec != *in.Spec {
				t.Errorf("spec changed: %+v -> %+v", *in.Spec, *out.Spec)
			}
			if len(out.Tasks) != len(in.Tasks) {
				t.Fatalf("task batch length changed: %d -> %d", len(in.Tasks), len(out.Tasks))
			}
			for i, want := range in.Tasks {
				got := out.Tasks[i]
				if got.Lease != want.Lease || got.Budget != want.Budget || !slices.Equal(got.Keys, want.Keys) ||
					!slices.EqualFunc(got.Tasks, want.Tasks, func(a, b *core.SubtreeTask) bool { return taskKey(a) == taskKey(b) }) {
					t.Errorf("lease %d changed: %+v -> %+v", i, want, got)
				}
			}
			if in.Result != nil {
				if out.Result.Lease != in.Result.Lease || !slices.Equal(out.Result.Keys, in.Result.Keys) {
					t.Errorf("result changed: %+v -> %+v", in.Result, out.Result)
				}
				ecfg := fp.ExplorerConfig()
				rep, left, err := out.Result.Delta.Restore("", &ecfg)
				if err != nil {
					t.Fatalf("delta does not restore: %v", err)
				}
				if rep.Interleavings != 3 || rep.DecisionPoints != 3 || rep.WildcardsAnalyzed != 5 {
					t.Errorf("delta counts changed: %+v", rep)
				}
				if len(rep.Errors) != 1 || rep.Errors[0].Index != 2 || rep.Errors[0].Err.Error() != "rank 2: assertion failed" ||
					rep.Errors[0].Decisions.String() != dec(1, 3, 0).String() {
					t.Errorf("delta errors changed: %+v", rep.Errors)
				}
				if len(left) != 1 || taskKey(left[0]) != taskKey(child) {
					t.Errorf("leftover frontier changed: %+v", left)
				}
			}
		})
	}
}

// TestReadFrameRejectsOversized: a length prefix beyond the frame cap is a
// corrupt stream, not a 4GB allocation.
func TestReadFrameRejectsOversized(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], maxFrameSize+1)
	_, _, err := readFrame(bytes.NewReader(hdr[:]), maxFrameSize)
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversized frame accepted: %v", err)
	}
}

// TestReadFrameRejectsTruncated: a frame cut mid-body errors instead of
// hanging or returning a partial decode.
func TestReadFrameRejectsTruncated(t *testing.T) {
	var buf bytes.Buffer
	if _, err := writeFrame(&buf, &frame{Type: msgHeartbeat, Worker: "w"}); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-3]
	if _, _, err := readFrame(bytes.NewReader(cut), maxFrameSize); err == nil {
		t.Fatal("truncated frame decoded successfully")
	}
}

// TestTaskKeyDistinguishesPrefixes: the dedup key separates distinct
// decision prefixes and is stable across a JSON round trip.
func TestTaskKeyDistinguishesPrefixes(t *testing.T) {
	a := &core.SubtreeTask{Decisions: dec(0, 1, 2), Budget: 1, Explorable: true}
	b := &core.SubtreeTask{Decisions: dec(0, 1, 3), Budget: 1, Explorable: true}
	if taskKey(a) == taskKey(b) {
		t.Fatalf("distinct prefixes share key %q", taskKey(a))
	}
	var buf bytes.Buffer
	if _, err := writeFrame(&buf, &frame{Type: msgTask, Tasks: []wireTask{{Lease: 1, Tasks: []*core.SubtreeTask{a}}}}); err != nil {
		t.Fatal(err)
	}
	fr, _, err := readFrame(&buf, maxFrameSize)
	if err != nil {
		t.Fatal(err)
	}
	got := fr.Tasks[0].Tasks[0]
	if taskKey(got) != taskKey(a) {
		t.Errorf("key unstable across codec: %q -> %q", taskKey(a), taskKey(got))
	}
	if !reflect.DeepEqual(got.Budget, a.Budget) || got.Explorable != a.Explorable {
		t.Errorf("task fields changed: %+v -> %+v", a, got)
	}
}

// TestWriteFrameIsOneWrite: header and payload leave in a single Write — one
// syscall per frame on a TCP connection — and the byte count both ends report
// is the same.
func TestWriteFrameIsOneWrite(t *testing.T) {
	var w countingWriter
	n, err := writeFrame(&w, &frame{Type: msgHeartbeat, Worker: "w"})
	if err != nil {
		t.Fatal(err)
	}
	if w.writes != 1 || n != w.buf.Len() {
		t.Errorf("writeFrame issued %d writes and reported %d of %d bytes, want 1 write of all", w.writes, n, w.buf.Len())
	}
	if _, m, err := readFrame(&w.buf, maxFrameSize); err != nil || m != n {
		t.Errorf("readFrame consumed %d bytes (err %v), the writer sent %d", m, err, n)
	}
}

type countingWriter struct {
	buf    bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.buf.Write(p)
}

// TestResultCarriesReproducerOnlyWhenKept: a run's full-depth decision vector
// is the largest thing a replay produces and the report keeps it in three
// cases only — an error, a deadlock, a sampled schedule. A clean exhaustive
// lease's delta has no decision vector in it at all; its keys are the ones the
// task frame carried, not a fresh rendering.
func TestResultCarriesReproducerOnlyWhenKept(t *testing.T) {
	for _, tc := range []struct {
		name     string
		err      error
		deadlock bool
		sample   *core.SampleState
		want     string // the delta member carrying the vector
	}{
		{name: "clean"},
		{name: "error", err: errors.New("rank 2: boom"), want: "errors"},
		{name: "deadlock", err: errors.New("deadlock"), deadlock: true, want: "errors"},
		{name: "sampled", sample: &core.SampleState{Walk: 1, Step: 2}, want: "sampled_keys"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := core.ExplorerConfig{Procs: 3, Runner: func(_ *core.ExplorerConfig, d *core.Decisions) (*core.RunTrace, *core.InterleavingResult, error) {
				return &core.RunTrace{}, &core.InterleavingResult{Err: tc.err, Deadlock: tc.deadlock, Decisions: d.Clone(), Epochs: 4}, nil
			}}
			w := NewWorker(WorkerConfig{Addr: "unused", Explorer: cfg})
			rt := &jobRuntime{cfg: cfg}
			task := &core.SubtreeTask{Decisions: dec(0, 1, 2), Budget: core.Unbounded, Explorable: true, Sample: tc.sample}
			res := w.runLease(rt, core.NewRunContext(&rt.cfg), wireTask{Lease: 7, Keys: []string{"key-from-the-task-frame"}, Tasks: []*core.SubtreeTask{task}})
			if !slices.Equal(res.Keys, []string{"key-from-the-task-frame"}) || res.Lease != 7 {
				t.Errorf("result echoes lease %d keys %q, want the task frame's", res.Lease, res.Keys)
			}
			if res.Delta == nil || res.Delta.Interleavings != 1 || len(res.Delta.Frontier) != 0 {
				t.Fatalf("delta = %+v, want one replay and nothing left", res.Delta)
			}

			var buf bytes.Buffer
			if _, err := writeFrame(&buf, &frame{Type: msgResult, Result: res}); err != nil {
				t.Fatal(err)
			}
			var raw struct {
				Result struct {
					Delta map[string]json.RawMessage `json:"delta"`
				} `json:"result"`
			}
			if err := json.Unmarshal(buf.Bytes()[4:], &raw); err != nil {
				t.Fatal(err)
			}
			vector := strings.Trim(task.Decisions.String(), "{}")
			for _, member := range []string{"errors", "sampled_keys"} {
				body, got := raw.Result.Delta[member]
				if got != (member == tc.want) {
					t.Errorf("delta has a %q member: %v, want %v\n%s", member, got, member == tc.want, buf.Bytes()[4:])
				}
				if got && member == "sampled_keys" && !strings.Contains(string(body), vector) {
					t.Errorf("sampled key %s does not carry the vector %s", body, vector)
				}
			}
			if bytes.Contains(buf.Bytes(), []byte(`"by_rank"`)) != (tc.want == "errors") {
				t.Errorf("decision vector on the wire: want it only with an error\n%s", buf.Bytes()[4:])
			}
			if tc.want == "errors" && res.Delta.Errors[0].Decisions.String() != task.Decisions.String() {
				t.Errorf("reproducer = %s, want %s", res.Delta.Errors[0].Decisions, task.Decisions)
			}
		})
	}
}

// FuzzReadFrame: arbitrary bytes never panic readFrame, and a header
// announcing more than the limit is refused on the header alone — nothing
// read past it, nothing allocated for it.
func FuzzReadFrame(f *testing.F) {
	framed := func(body []byte) []byte {
		out := make([]byte, 4, 4+len(body))
		binary.BigEndian.PutUint32(out, uint32(len(body)))
		return append(out, body...)
	}
	// A checkpoint the parent commit wrote: the richest JSON in the tree that
	// is made of the frame's own parts (subtree tasks, decisions, a trace).
	ckp, err := os.ReadFile("../dexplore/testdata/checkpoint_parent.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(framed(ckp), 1<<20)
	fp := baseFingerprint()
	task := &core.SubtreeTask{Decisions: dec(1, 3, 0), Budget: 2, Explorable: true}
	for _, fr := range []*frame{
		{Type: msgHello, Proto: protoVersion, Worker: "w1", Slots: 4, Spec: &fp},
		{Type: msgTask, Job: "j1", Tasks: []wireTask{{Lease: 42, Keys: []string{taskKey(task)}, Tasks: []*core.SubtreeTask{task}, Budget: 3}}},
		{Type: msgResult, Result: &WireResult{Lease: 42, Keys: []string{taskKey(task)}, Delta: deltaOf(fp, failedRun("boom"), task)}},
	} {
		var buf bytes.Buffer
		if _, err := writeFrame(&buf, fr); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes(), maxHelloSize)
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, '{'}, maxHelloSize)
	f.Add(framed([]byte(`{"type":"result","result":{"delta":{"errors":[{"decisions":{"by_rank":{"1":{"1":1},"01":{"2":2}}}}]}}}`)), 1<<10)

	f.Fuzz(func(t *testing.T, data []byte, limit int) {
		if limit < 0 || limit > 1<<20 {
			return
		}
		r := bytes.NewReader(data)
		over := len(data) >= 4 && int64(binary.BigEndian.Uint32(data)) > int64(limit)
		var before, after runtime.MemStats
		if over {
			runtime.ReadMemStats(&before)
		}
		fr, n, err := readFrame(r, limit)
		consumed := len(data) - r.Len()
		switch {
		case over:
			runtime.ReadMemStats(&after)
			if err == nil || consumed != 4 {
				t.Fatalf("over-limit announcement: err %v, consumed %d bytes; want an error on the header's 4", err, consumed)
			}
			// Another goroutine of the test binary may allocate meanwhile;
			// 1 MiB of slack is far below the announcements that matter.
			if grew := after.TotalAlloc - before.TotalAlloc; !race.Enabled && grew > uint64(limit)+1<<20 {
				t.Fatalf("over-limit announcement of %d bytes allocated %d (limit %d)", binary.BigEndian.Uint32(data), grew, limit)
			}
		case err == nil:
			if fr == nil || n != consumed || n > 4+limit {
				t.Fatalf("accepted frame %v: reported %d bytes, consumed %d, limit %d", fr, n, consumed, limit)
			}
		case fr != nil || n != 0:
			t.Fatalf("failed read returned frame %v, %d bytes", fr, n)
		}
	})
}
