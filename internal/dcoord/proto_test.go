package dcoord

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"dampi/internal/core"
	"dampi/internal/dexplore"
	"dampi/internal/race"
	"dampi/workloads/matmul"
)

// writeFrame writes one frame through a fresh frameWriter, as the first
// write of a connection does.
func writeFrame(w io.Writer, fr *frame) (int, error) {
	var fw frameWriter
	return fw.write(w, fr)
}

// readFrame reads one frame through a fresh frameReader, as the first read of
// a connection does.
func readFrame(r io.Reader, limit int) (*frame, int, error) {
	var fr frameReader
	return fr.read(r, limit)
}

// everyFrame is one frame of every type, each member its type uses set.
func everyFrame() []*frame {
	fp := baseFingerprint()
	task := &core.SubtreeTask{Decisions: dec(1, 3, 0), Budget: 2, Explorable: true}
	sibling := &core.SubtreeTask{Decisions: dec(1, 3, 2), Budget: 2, Explorable: true}
	failed := &core.Report{
		Interleavings: 3, DecisionPoints: 3, WildcardsAnalyzed: 5,
		Errors: []*core.InterleavingResult{{Index: 2, Err: errors.New("rank 2: assertion failed"), Decisions: dec(1, 3, 0)}},
	}
	return []*frame{
		{Type: msgHello, Proto: protoVersion, Worker: "w1", Slots: 4, Spec: &fp},
		{Type: msgWelcome, LeaseTTLMillis: 10000},
		{Type: msgReject, Reason: "dcoord: procs mismatch"},
		{Type: msgJob, Job: "j1", Spec: &fp},
		{Type: msgTask, Job: "j1", Tasks: []wireTask{
			{Lease: 41, Tasks: []*core.SubtreeTask{{Budget: core.Unbounded, Explorable: true}}, Budget: 1},
			{Lease: 42, Tasks: []*core.SubtreeTask{sibling, task}},
		}},
		{Type: msgHeartbeat},
		{Type: msgResult, Job: "j1", Result: &WireResult{Lease: 42, Untouched: 1, Delta: deltaOf(fp, failed, flipped(task, 2, 1, 1)), roots: []*core.SubtreeTask{sibling, task}}},
		{Type: msgJobDone, Job: "j1"},
		{Type: msgDone},
	}
}

// TestFrameRoundTrip: every frame shape survives the length-prefixed JSON
// codec byte-for-byte in meaning.
func TestFrameRoundTrip(t *testing.T) {
	fp := baseFingerprint()
	frames := everyFrame()
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
			if out.Type != in.Type || out.Job != in.Job || out.Proto != in.Proto || out.Worker != in.Worker ||
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
				if got.Lease != want.Lease || got.Budget != want.Budget || !slices.EqualFunc(got.Tasks, want.Tasks, sameTask) {
					t.Errorf("lease %d changed: %+v -> %+v", i, want, got)
				}
			}
			if in.Result != nil {
				if out.Result.Lease != in.Result.Lease || out.Result.Untouched != in.Result.Untouched {
					t.Errorf("result changed: %+v -> %+v", in.Result, out.Result)
				}
				ecfg := fp.ExplorerConfig()
				if _, err := out.Result.Delta.HangFrom(in.Result.roots); err != nil {
					t.Fatalf("delta does not hang from the lease's roots: %v", err)
				}
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
				if len(left) != 1 || !sameTask(left[0], in.Result.Delta.Frontier[0]) {
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
	if _, err := writeFrame(&buf, &frame{Type: msgHeartbeat}); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-3]
	if _, _, err := readFrame(bytes.NewReader(cut), maxFrameSize); err == nil {
		t.Fatal("truncated frame decoded successfully")
	}
}

// TestFrameBytesAreMarshals: a frame on the wire is the 4-byte length and
// the bytes json.Marshal gives, whatever the writer's buffer held before —
// every frame type, written in turn through one frameWriter, then again.
func TestFrameBytesAreMarshals(t *testing.T) {
	var fw frameWriter
	for round := 0; round < 2; round++ {
		for _, fr := range everyFrame() {
			body, err := json.Marshal(fr)
			if err != nil {
				t.Fatal(err)
			}
			want := append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
			var got bytes.Buffer
			if n, err := fw.write(&got, fr); err != nil || n != len(want) || !bytes.Equal(got.Bytes(), want) {
				t.Errorf("round %d, %s frame: wrote %d bytes (err %v)\n%q\nwant header + json.Marshal\n%q", round, fr.Type, n, err, got.Bytes(), want)
			}
		}
	}
}

// TestDecodedFrameOwnsItsBytes: a frameReader reads the next frame into the
// body buffer the last one was decoded from, so nothing decoded may point
// into it. Every frame type, decoded and then its buffer overwritten, still
// encodes as it did.
func TestDecodedFrameOwnsItsBytes(t *testing.T) {
	for _, in := range everyFrame() {
		var buf bytes.Buffer
		if _, err := writeFrame(&buf, in); err != nil {
			t.Fatal(err)
		}
		var fr frameReader
		out, _, err := fr.read(&buf, maxFrameSize)
		if err != nil {
			t.Fatal(err)
		}
		before, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		body := fr.body[:cap(fr.body)]
		for i := range body {
			body[i] = '9'
		}
		if after, err := json.Marshal(out); err != nil || !bytes.Equal(after, before) {
			t.Errorf("%s frame changed with its reader's buffer:\n%s\nwas\n%s", in.Type, after, before)
		}
	}
}

// TestLargeFrameBufferNotKept: a buffer grown past maxKeptFrame for one frame
// is dropped after it, on either side; one under it is kept for the next.
func TestLargeFrameBufferNotKept(t *testing.T) {
	var fw frameWriter
	var fr frameReader
	for _, tc := range []struct {
		worker string
		kept   bool
	}{
		{"w1", true},
		{strings.Repeat("w", maxKeptFrame), false},
		{"w2", true},
	} {
		var buf bytes.Buffer
		if _, err := fw.write(&buf, &frame{Type: msgHello, Worker: tc.worker}); err != nil {
			t.Fatal(err)
		}
		size := buf.Len()
		if kept := fw.buf.Cap() > 0; kept != tc.kept {
			t.Errorf("a %d-byte frame: writer keeps a %d-byte buffer", size, fw.buf.Cap())
		}
		if out, _, err := fr.read(&buf, maxFrameSize); err != nil || out.Worker != tc.worker {
			t.Fatalf("read back: %v", err)
		}
		if kept := cap(fr.body) > 0; kept != tc.kept {
			t.Errorf("a %d-byte frame: reader keeps a %d-byte buffer", size, cap(fr.body))
		}
	}
}

// TestWarmFrameAllocBudget: a connection's warm write of a heartbeat, and of
// a task frame or a clean lease's result, allocates nothing — no json.Marshal
// copy, no header+body slice, no table: the writer keeps its table scratch (a
// failing interleaving's reproducer encodes itself) — and its
// warm heartbeat read allocates only what decoding keeps (the frame and its
// type string) plus encoding/json's own bookkeeping: no body. Counts measured
// with go1.24; skipped under -race, which allocates on its own.
func TestWarmFrameAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	const wantWrite, wantRead = 0, 6
	hb := &frame{Type: msgHeartbeat}
	var fw frameWriter
	root := &core.SubtreeTask{Decisions: dec(1, 3, 0), Budget: 2, Explorable: true}
	clean := &frame{Type: msgResult, Job: "j1", Result: &WireResult{Lease: 42, Delta: deltaOf(baseFingerprint(), &core.Report{Interleavings: 3}, flipped(root, 2, 1, 1)), roots: []*core.SubtreeTask{root}}}
	frames := everyFrame()
	task := frames[slices.IndexFunc(frames, func(fr *frame) bool { return fr.Type == msgTask })]
	for _, fr := range []*frame{hb, task, clean} {
		if _, err := fw.write(io.Discard, fr); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(200, func() { _, _ = fw.write(io.Discard, fr) }); n > wantWrite {
			t.Errorf("a warm %s write allocates %v times, want %d", fr.Type, n, wantWrite)
		}
	}
	var buf bytes.Buffer
	if _, err := fw.write(&buf, hb); err != nil {
		t.Fatal(err)
	}
	wire := buf.Bytes()
	r := bytes.NewReader(wire)
	var fr frameReader
	if _, _, err := fr.read(r, maxFrameSize); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		r.Reset(wire)
		_, _, _ = fr.read(r, maxFrameSize)
	}); n > wantRead {
		t.Errorf("a warm heartbeat read allocates %v times, want %d", n, wantRead)
	}
}

// sameTask reports whether two subtree tasks are equal field for field.
func sameTask(a, b *core.SubtreeTask) bool {
	return a.Decisions.String() == b.Decisions.String() && a.Budget == b.Budget && a.Explorable == b.Explorable &&
		a.Depth == b.Depth && reflect.DeepEqual(a.Sample, b.Sample)
}

// TestWriteFrameIsOneWrite: header and payload leave in a single Write — one
// syscall per frame on a TCP connection — and the byte count both ends report
// is the same.
func TestWriteFrameIsOneWrite(t *testing.T) {
	var w countingWriter
	n, err := writeFrame(&w, &frame{Type: msgHeartbeat})
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
// lease's delta has no decision vector in it at all, and the result names its
// lease by id.
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
			res := w.runLease(rt, core.NewRunContext(&rt.cfg), leased(t, wireTask{Lease: 7, Tasks: []*core.SubtreeTask{task}}))
			if res.Lease != 7 {
				t.Errorf("result names lease %d, want the task frame's 7", res.Lease)
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

// FuzzReadFrame: arbitrary bytes, read as a sequence of frames through one
// frameReader as a connection reads them, never panic it; a header
// announcing more than the limit is refused on the header alone — nothing
// read past it, nothing allocated for it; and every frame decodes as it does
// through a fresh buffer, so a short frame read after a long one sees none of
// the long one's bytes.
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
		{Type: msgTask, Job: "j1", Tasks: []wireTask{{Lease: 42, Tasks: []*core.SubtreeTask{task}, Budget: 3}}},
		{Type: msgResult, Result: &WireResult{Lease: 42, Delta: deltaOf(fp, failedRun("boom"), flipped(task, 2, 1, 1)), roots: []*core.SubtreeTask{task}}},
	} {
		var buf bytes.Buffer
		if _, err := writeFrame(&buf, fr); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes(), maxHelloSize)
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, '{'}, maxHelloSize)
	f.Add(framed([]byte(`{"type":"result","result":{"delta":{"errors":[{"decisions":{"by_rank":{"1":{"1":1},"01":{"2":2}}}}]}}}`)), 1<<10)
	// Sequences: a long frame, then a short one; a long frame, then a short
	// one cut off, whose missing bytes the long one's buffer still holds.
	long := framed(ckp)
	short := framed([]byte(`{"type":"heartbeat"}`))
	f.Add(slices.Concat(long, short, short), 1<<20)
	f.Add(slices.Concat(long, short[:len(short)-5]), 1<<20)

	f.Fuzz(func(t *testing.T, data []byte, limit int) {
		if limit < 0 || limit > 1<<20 {
			return
		}
		r := bytes.NewReader(data)
		var reader frameReader
		for {
			rest := data[len(data)-r.Len():]
			over := len(rest) >= 4 && int64(binary.BigEndian.Uint32(rest)) > int64(limit)
			var before, after runtime.MemStats
			if over {
				runtime.ReadMemStats(&before)
			}
			fr, n, err := reader.read(r, limit)
			consumed := len(rest) - r.Len()
			switch {
			case over:
				runtime.ReadMemStats(&after)
				if err == nil || consumed != 4 {
					t.Fatalf("over-limit announcement: err %v, consumed %d bytes; want an error on the header's 4", err, consumed)
				}
				// Another goroutine of the test binary may allocate meanwhile;
				// 1 MiB of slack is far below the announcements that matter.
				if grew := after.TotalAlloc - before.TotalAlloc; !race.Enabled && grew > uint64(limit)+1<<20 {
					t.Fatalf("over-limit announcement of %d bytes allocated %d (limit %d)", binary.BigEndian.Uint32(rest), grew, limit)
				}
				return
			case err == nil:
				if fr == nil || n != consumed || n > 4+limit {
					t.Fatalf("accepted frame %v: reported %d bytes, consumed %d, limit %d", fr, n, consumed, limit)
				}
				alone, _, err := readFrame(bytes.NewReader(rest[:n]), limit)
				got, gerr := json.Marshal(fr)
				want, werr := json.Marshal(alone)
				if err != nil || (gerr == nil) != (werr == nil) || !bytes.Equal(got, want) {
					t.Fatalf("frame read through a used buffer:\n%s\nthrough a fresh one (err %v):\n%s", got, err, want)
				}
			case fr != nil || n != 0:
				t.Fatalf("failed read returned frame %v, %d bytes", fr, n)
			default:
				return
			}
		}
	})
}

// TestChainedFrontierDecodesAsItsFlatClone: a frontier the search built —
// prefix nodes sharing their parents' decisions and pins — goes into a
// checkpoint, a lease frame and a result frame as a table that writes each
// shared part once, and reads back, task for task, as the same subtrees a
// frontier of flat clones of the same prefixes reads back as; its table is
// the smaller.
func TestChainedFrontierDecodesAsItsFlatClone(t *testing.T) {
	cfg := core.ExplorerConfig{Procs: 5, MixingBound: core.Unbounded, Program: matmul.Program(matmul.Config{})}
	rc := core.NewRunContext(&cfg)
	defer rc.Close()
	rep, chained, _, err := rc.Explore([]*core.SubtreeTask{core.RootTask(&cfg)}, 700, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	flat := make([]*core.SubtreeTask, len(chained))
	deepest := 0
	for i, task := range chained {
		cp := *task
		cp.Decisions = task.Decisions.Clone()
		flat[i] = &cp
		deepest = max(deepest, task.Depth)
	}
	if len(chained) < 10 || deepest < 2 {
		t.Fatalf("degenerate fixture: %d tasks, at most %d deep", len(chained), deepest)
	}
	ecfg := cfg
	ecfg.Program = nil
	// roundTrip writes frontier three ways and reads each back.
	roundTrip := func(frontier []*core.SubtreeTask) (size [3]int, got [3][]*core.SubtreeTask) {
		delta := dexplore.NewCheckpoint("matmul", &cfg, rep, frontier)
		var buf bytes.Buffer
		if err := delta.Write(&buf); err != nil {
			t.Fatal(err)
		}
		size[0] = buf.Len()
		ckp, err := dexplore.ReadCheckpoint(&buf)
		if err != nil {
			t.Fatal(err)
		}
		got[0] = ckp.Frontier
		for i, fr := range []*frame{
			{Type: msgTask, Job: "matmul", Tasks: []wireTask{{Lease: 3, Tasks: frontier[:1], Budget: 40}, {Lease: 4, Tasks: frontier[1:]}}},
			{Type: msgResult, Job: "matmul", Result: &WireResult{Lease: 3, Delta: delta}},
		} {
			n, err := writeFrame(&buf, fr)
			if err != nil {
				t.Fatal(err)
			}
			size[i+1] = n
			out, _, err := readFrame(&buf, maxFrameSize)
			if err != nil {
				t.Fatal(err)
			}
			if fr.Type == msgTask {
				got[1] = slices.Concat(out.Tasks[0].Tasks, out.Tasks[1].Tasks)
				continue
			}
			if _, got[2], err = out.Result.Delta.Restore("", &ecfg); err != nil {
				t.Fatal(err)
			}
		}
		return size, got
	}
	chainedSize, fromChained := roundTrip(chained)
	flatSize, fromFlat := roundTrip(flat)
	for i, name := range []string{"checkpoint", "lease frame", "result frame"} {
		if !slices.EqualFunc(fromChained[i], flat, sameTask) || !slices.EqualFunc(fromFlat[i], flat, sameTask) {
			t.Errorf("%s: the chained frontier reads back as %v, its flat clone as %v; want %v", name, fromChained[i], fromFlat[i], flat)
		}
		if chainedSize[i] >= flatSize[i] {
			t.Errorf("%s: the chained frontier takes %d bytes, its flat clone %d", name, chainedSize[i], flatSize[i])
		}
	}
}
