package dcoord

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"runtime"
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
	frames := []*frame{
		{Type: msgHello, Proto: protoVersion, Worker: "w1", Slots: 4, Fingerprint: &fp},
		{Type: msgWelcome, LeaseTTLMillis: 10000},
		{Type: msgReject, Reason: "dcoord: procs mismatch"},
		{Type: msgTask, Tasks: []wireTask{
			{Lease: 41, Task: &core.SubtreeTask{Budget: core.Unbounded, Explorable: true}, Root: true},
			{Lease: 42, Key: taskKey(task), Task: task},
		}},
		{Type: msgHeartbeat, Worker: "w1"},
		{Type: msgDone},
		{Type: msgResult, Result: &WireResult{
			Lease:          42,
			Key:            taskKey(task),
			ErrMsg:         "rank 2: assertion failed",
			Decisions:      dec(1, 3, 0),
			Epochs:         7,
			Children:       []*core.SubtreeTask{{Decisions: dec(2, 1, 1), Budget: core.Unbounded, Explorable: true}},
			DecisionPoints: 3,
			Root:           &RootInfo{WildcardsAnalyzed: 5},
		}},
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
			if in.Fingerprint != nil && *out.Fingerprint != *in.Fingerprint {
				t.Errorf("fingerprint changed: %+v -> %+v", *in.Fingerprint, *out.Fingerprint)
			}
			if len(out.Tasks) != len(in.Tasks) {
				t.Fatalf("task batch length changed: %d -> %d", len(in.Tasks), len(out.Tasks))
			}
			for i := range in.Tasks {
				if out.Tasks[i].Lease != in.Tasks[i].Lease || out.Tasks[i].Root != in.Tasks[i].Root ||
					out.Tasks[i].Key != in.Tasks[i].Key || taskKey(out.Tasks[i].Task) != taskKey(in.Tasks[i].Task) {
					t.Errorf("batched task %d changed: %+v -> %+v", i, in.Tasks[i], out.Tasks[i])
				}
			}
			if in.Result != nil {
				if out.Result.Key != in.Result.Key || out.Result.ErrMsg != in.Result.ErrMsg ||
					out.Result.Epochs != in.Result.Epochs || out.Result.DecisionPoints != in.Result.DecisionPoints {
					t.Errorf("result changed: %+v -> %+v", in.Result, out.Result)
				}
				if len(out.Result.Children) != 1 || taskKey(out.Result.Children[0]) != taskKey(in.Result.Children[0]) {
					t.Errorf("children changed: %+v", out.Result.Children)
				}
				if out.Result.Root == nil || out.Result.Root.WildcardsAnalyzed != 5 {
					t.Errorf("root info changed: %+v", out.Result.Root)
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
	if _, err := writeFrame(&buf, &frame{Type: msgTask, Tasks: []wireTask{{Lease: 1, Task: a}}}); err != nil {
		t.Fatal(err)
	}
	fr, _, err := readFrame(&buf, maxFrameSize)
	if err != nil {
		t.Fatal(err)
	}
	got := fr.Tasks[0].Task
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

// TestResultCarriesReproducerOnlyWhenKept: the run's full-depth decision
// vector is the largest thing in a result frame and the coordinator keeps it
// in three cases only — an error, a deadlock, a sampled schedule. A clean
// exhaustive replay's frame has no "decisions" member at all; its key is the
// one the task frame carried, not a fresh rendering.
func TestResultCarriesReproducerOnlyWhenKept(t *testing.T) {
	for _, tc := range []struct {
		name     string
		err      error
		deadlock bool
		sample   *core.SampleState
		want     bool
	}{
		{name: "clean", want: false},
		{name: "error", err: errors.New("rank 2: boom"), want: true},
		{name: "deadlock", deadlock: true, want: true},
		{name: "sampled", sample: &core.SampleState{Walk: 1, Step: 2}, want: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := core.ExplorerConfig{Procs: 3, Runner: func(_ *core.ExplorerConfig, d *core.Decisions) (*core.RunTrace, *core.InterleavingResult, error) {
				return &core.RunTrace{}, &core.InterleavingResult{Err: tc.err, Deadlock: tc.deadlock, Decisions: d.Clone(), Epochs: 4}, nil
			}}
			w := NewWorker(WorkerConfig{Addr: "unused", Explorer: cfg})
			rt := &jobRuntime{cfg: cfg}
			task := &core.SubtreeTask{Decisions: dec(0, 1, 2), Budget: core.Unbounded, Explorable: true, Sample: tc.sample}
			res := w.execute(rt, rt.get(), wireTask{Lease: 7, Key: "key-from-the-task-frame", Task: task})
			if res.Key != "key-from-the-task-frame" || res.Lease != 7 {
				t.Errorf("result echoes lease %d key %q, want the task frame's", res.Lease, res.Key)
			}

			var buf bytes.Buffer
			if _, err := writeFrame(&buf, &frame{Type: msgResult, Result: res}); err != nil {
				t.Fatal(err)
			}
			var raw struct {
				Result map[string]json.RawMessage `json:"result"`
			}
			if err := json.Unmarshal(buf.Bytes()[4:], &raw); err != nil {
				t.Fatal(err)
			}
			if _, got := raw.Result["decisions"]; got != tc.want {
				t.Errorf("result frame has a decisions member: %v, want %v\n%s", got, tc.want, buf.Bytes()[4:])
			}
			if tc.want && res.Decisions.String() != task.Decisions.String() {
				t.Errorf("reproducer = %s, want %s", res.Decisions, task.Decisions)
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
		{Type: msgHello, Proto: protoVersion, Worker: "w1", Slots: 4, Fingerprint: &fp},
		{Type: msgTask, Job: "j1", Tasks: []wireTask{{Lease: 42, Key: taskKey(task), Task: task}}},
		{Type: msgResult, Result: &WireResult{Lease: 42, Key: taskKey(task), ErrMsg: "boom", Decisions: dec(1, 3, 0), Children: []*core.SubtreeTask{task}}},
	} {
		var buf bytes.Buffer
		if _, err := writeFrame(&buf, fr); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes(), maxHelloSize)
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, '{'}, maxHelloSize)
	f.Add(framed([]byte(`{"type":"result","result":{"decisions":{"by_rank":{"1":{"1":1},"01":{"2":2}}}}}`)), 1<<10)

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
