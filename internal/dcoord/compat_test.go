package dcoord

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"dampi/internal/core"
	"dampi/internal/dexplore"
	"dampi/mpi"
)

// baseFingerprint is the spec of a small exhaustive exploration.
func baseFingerprint() JobSpec {
	return JobSpec{
		Workload: "matmul",
		Procs:    6,
		Space:    dexplore.Space{Clock: core.Lamport, Transport: core.Separate, MixingBound: 1},
	}
}

// TestFingerprintCheckEachMismatch: a pinned worker's identity is a JobSpec,
// and every field of it that shapes the program or the interleaving space is
// refused on mismatch with an error naming the field — exploring under
// mismatched parameters would silently cover a different interleaving space.
// The worker's scale and iters are compared unless 0, unknown; the job-level
// bounds are the coordinator's and never compared.
func TestFingerprintCheckEachMismatch(t *testing.T) {
	base := baseFingerprint()
	base.Scale, base.Iters = 50, 2
	if err := base.Check(&base); err != nil {
		t.Fatalf("identical specs rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*JobSpec)
		want   string // "" = accepted
	}{
		{"workload", func(f *JobSpec) { f.Workload = "adlb" }, `workload mismatch: coordinator "matmul", worker "adlb"`},
		{"procs", func(f *JobSpec) { f.Procs = 8 }, "procs mismatch: coordinator 6, worker 8"},
		{"clock", func(f *JobSpec) { f.Clock = core.VectorClock }, "clock mismatch: coordinator lamport, worker vector"},
		{"dual-clock", func(f *JobSpec) { f.DualClock = true }, "dual-clock"},
		{"transport", func(f *JobSpec) { f.Transport = core.Inband }, "transport"},
		{"mixing-bound", func(f *JobSpec) { f.MixingBound = 2 }, "mixing bound"},
		{"autoloop", func(f *JobSpec) { f.AutoLoopThreshold = 5 }, "autoloop"},
		{"scale", func(f *JobSpec) { f.Scale = 100 }, "scale mismatch: coordinator 50, worker 100"},
		{"iters", func(f *JobSpec) { f.Iters = 4 }, "iters mismatch: coordinator 2, worker 4"},
		{"scale-unknown", func(f *JobSpec) { f.Scale = 0 }, ""},
		{"iters-unknown", func(f *JobSpec) { f.Iters = 0 }, ""},
		{"max-interleavings", func(f *JobSpec) { f.MaxInterleavings = 9 }, ""},
		{"stop-on-first-error", func(f *JobSpec) { f.StopOnFirstError = true }, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			worker := base
			tc.mutate(&worker)
			err := base.Check(&worker)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("%s differs, and the worker is refused: %v", tc.name, err)
			case tc.want != "" && err == nil:
				t.Fatalf("mismatched %s accepted", tc.name)
			case tc.want != "" && !strings.Contains(err.Error(), tc.want):
				t.Errorf("error %q does not say %q", err, tc.want)
			}
		})
	}
	// An unstated scale on the job is the default every CLI builds with.
	job, worker := baseFingerprint(), baseFingerprint()
	worker.Scale = 50
	if err := job.Check(&worker); err == nil || !strings.Contains(err.Error(), "scale mismatch: coordinator 100, worker 50") {
		t.Errorf("scale-50 worker against a job at the default scale: %v", err)
	}
}

// TestSpecFieldsCannotDrift walks Space by reflection — a field added to it
// and forgotten anywhere on the wire fails here: mutating each one alone makes
// JobSpec.Check refuse the worker with the error Space.Diff names the field
// in, changes the dedup key, and survives a JSON round trip through a JobSpec
// and through a hello frame.
func TestSpecFieldsCannotDrift(t *testing.T) {
	base := JobSpec{Workload: "iprobe", Procs: 2, Scale: 50, Iters: 2, Space: dexplore.Space{
		Clock: core.VectorClock, DualClock: true, Transport: core.Inband, MixingBound: 2, AutoLoopThreshold: 3,
		ChoicePoints: true, SampleStrategy: "random", Samples: 24, SampleSeed: 7, SampleDepth: 2,
	}}
	typ := reflect.TypeOf(base.Space)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		mut := base
		switch f := reflect.ValueOf(&mut.Space).Elem().Field(i); f.Kind() {
		case reflect.Bool:
			f.SetBool(!f.Bool())
		case reflect.Int:
			f.SetInt(f.Int() + 1)
		case reflect.Uint64:
			f.SetUint(f.Uint() + 1)
		case reflect.String:
			f.SetString("pct")
		default:
			t.Fatalf("Space.%s is a %s: teach the drift test to mutate it", name, f.Kind())
		}
		if mut.Space == base.Space {
			t.Fatalf("Space.%s: the mutation changed nothing", name)
		}
		diff := base.Space.Diff(mut.Space, "coordinator", "worker")
		if err := base.Check(&mut); err == nil || diff == nil || err.Error() != "dcoord: "+diff.Error() {
			t.Errorf("Space.%s mutated: Check = %v, want Space.Diff's %v", name, err, diff)
		}
		norm := mut
		norm.Normalize() // forces choice points back on for a sampling spec
		if norm != base && mut.Key() == base.Key() {
			t.Errorf("Space.%s mutated: the dedup key did not change", name)
		}
		body, err := json.Marshal(&mut)
		if err != nil {
			t.Fatal(err)
		}
		var back JobSpec
		if err := json.Unmarshal(body, &back); err != nil || back != mut {
			t.Errorf("Space.%s mutated: JSON reads back %+v (err %v), wrote %+v", name, back, err, mut)
		}
		var buf bytes.Buffer
		if _, err := writeFrame(&buf, &frame{Type: msgHello, Proto: protoVersion, Worker: "w", Slots: 1, Spec: &mut}); err != nil {
			t.Fatal(err)
		}
		hello, _, err := readFrame(&buf, maxHelloSize)
		if err != nil || hello.Spec == nil || *hello.Spec != mut {
			t.Errorf("Space.%s mutated: the hello reads back %+v (err %v), wrote %+v", name, hello.Spec, err, mut)
		}
		if cfg := mut.ExplorerConfig(); FingerprintFor(mut.Workload, &cfg).Space != mut.Space {
			t.Errorf("Space.%s mutated: FingerprintFor(ExplorerConfig()) reads back %+v", name, FingerprintFor(mut.Workload, &cfg).Space)
		}
	}
}

// TestSpecGoldenBytesAndKeys: the normalized JSON of a spec and its dedup key
// are what the parent commit produced for the same exploration (both computed
// there, when the space fields were declared in JobSpec itself): the REST
// body, the WAL record and the key are a contract with stored jobs.
func TestSpecGoldenBytesAndKeys(t *testing.T) {
	for _, tc := range []struct {
		spec      JobSpec
		body, key string
	}{
		{
			JobSpec{Workload: "matmul", Procs: 6, Space: dexplore.Space{MixingBound: 1}},
			`{"workload":"matmul","procs":6,"scale":100,"iters":4,"clock":0,"transport":0,"mixing_bound":1}`,
			"ebab3db71db9601daf90f346ef1d728bcc82f9fda0631ad932ce539831ee4aee",
		},
		{
			JobSpec{Workload: "iprobe", Procs: 2, Scale: 50, Iters: 2, Space: dexplore.Space{
				Clock: core.VectorClock, DualClock: true, Transport: core.Inband, MixingBound: core.Unbounded, AutoLoopThreshold: 3,
				SampleStrategy: "pct", Samples: 64, SampleSeed: 7, SampleDepth: 2,
			}, MaxInterleavings: 1000, StopOnFirstError: true},
			`{"workload":"iprobe","procs":2,"scale":50,"iters":2,"clock":1,"dual_clock":true,"transport":1,"mixing_bound":-1,"auto_loop_threshold":3,"choice_points":true,"sample_strategy":"pct","samples":64,"sample_seed":7,"sample_depth":2,"max_interleavings":1000,"stop_on_first_error":true}`,
			"a0608af56d985f80bb0fca1f3d398882f03dae578ef715ff42e3e2d17a0386be",
		},
	} {
		n := tc.spec
		n.Normalize()
		body, err := json.Marshal(&n)
		if err != nil {
			t.Fatal(err)
		}
		if string(body) != tc.body {
			t.Errorf("normalized spec marshals as\n %s\nwant\n %s", body, tc.body)
		}
		if got := tc.spec.Key(); got != tc.key {
			t.Errorf("%s: key %s, want %s", tc.spec.Workload, got, tc.key)
		}
		var back JobSpec
		if err := json.Unmarshal([]byte(tc.body), &back); err != nil || back != n {
			t.Errorf("the golden body reads back %+v (err %v), want %+v", back, err, n)
		}
	}
}

// TestSpecValidateRefusesOutOfRange: a spec is outside input; every field is
// held to its range.
func TestSpecValidateRefusesOutOfRange(t *testing.T) {
	base := baseFingerprint()
	if err := base.Validate(); err != nil {
		t.Fatal(err)
	}
	widest := base
	widest.Procs = maxProcs
	if err := widest.Validate(); err != nil {
		t.Errorf("procs %d refused: %v", maxProcs, err)
	}
	for name, mutate := range map[string]func(*JobSpec){
		"procs":               func(s *JobSpec) { s.Procs = maxProcs + 1 },
		"clock":               func(s *JobSpec) { s.Clock = 7 },
		"transport":           func(s *JobSpec) { s.Transport = -1 },
		"mixing_bound":        func(s *JobSpec) { s.MixingBound = -2 },
		"samples":             func(s *JobSpec) { s.Samples = -1 },
		"sample_depth":        func(s *JobSpec) { s.SampleDepth = -1 },
		"auto_loop_threshold": func(s *JobSpec) { s.AutoLoopThreshold = -1 },
		"max_interleavings":   func(s *JobSpec) { s.MaxInterleavings = -1 },
		"scale":               func(s *JobSpec) { s.Scale = -1 },
		"iters":               func(s *JobSpec) { s.Iters = -1 },
		"strategy":            func(s *JobSpec) { s.SampleStrategy = "custom" },
	} {
		spec := base
		mutate(&spec)
		if err := spec.Validate(); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s out of range: Validate = %v", name, err)
		}
		if _, err := New(Config{Fingerprint: spec}); err == nil {
			t.Errorf("%s out of range: New built a coordinator for it", name)
		}
	}
}

// TestJoinRejectsMismatchedWorker: the handshake refuses a worker whose
// fingerprint differs, the worker surfaces the reason and does NOT retry
// (the mismatch is permanent).
func TestJoinRejectsMismatchedWorker(t *testing.T) {
	fp := baseFingerprint()
	c, addr := startCoordinator(t, Config{Fingerprint: fp, LeaseTTL: time.Second})
	defer c.Stop()

	bad := fp
	bad.Procs = 8
	w := NewWorker(WorkerConfig{
		Addr:        addr,
		Name:        "mismatched",
		Fingerprint: bad,
		Explorer:    core.ExplorerConfig{Procs: 8, Program: func(p *mpi.Proc) error { return nil }},
	})
	done := make(chan error, 1)
	go func() { done <- w.Run() }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("mismatched worker joined successfully")
		}
		if !strings.Contains(err.Error(), "procs") {
			t.Errorf("rejection %q does not name the mismatched field", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("rejected worker kept retrying instead of exiting")
	}
}

// TestJoinRejectsWrongProtocol: a worker speaking another frame protocol
// version is refused at hello.
func TestJoinRejectsWrongProtocol(t *testing.T) {
	fp := baseFingerprint()
	c, addr := startCoordinator(t, Config{Fingerprint: fp, LeaseTTL: time.Second})
	defer c.Stop()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := writeFrame(conn, &frame{Type: msgHello, Proto: protoVersion + 7, Worker: "future", Slots: 1, Spec: &fp}); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	fr, _, err := readFrame(conn, maxFrameSize)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Type != msgReject || !strings.Contains(fr.Reason, "protocol version") {
		t.Errorf("got %s frame (reason %q), want protocol-version reject", fr.Type, fr.Reason)
	}
}

// TestJoinRejectsOldProtocols: workers from before the batched-lease task
// frame (protocol 1), the multi-job frames (protocol 2), the wire-carried
// task key (protocol 3), the subtree lease (protocol 4), the announced
// one-shot exploration (protocol 5), the untouched-root count (protocol 6),
// the key-free lease (protocol 7) or the prefix table (protocol 8) — every
// version below protoVersion — are
// refused at hello, by a one-shot coordinator and by a job-queue server
// alike, with an error naming both versions. An old worker would drop the
// frames it does not know — batched tasks for v1, job announcements for v2 —
// or, for v3, be sent keys it ignores and have its own results checked
// against them, or, for v4, find no task in a lease and answer with no delta,
// or, for v5, state its identity in a field nobody reads and run a one-shot
// coordinator's tasks unchecked, or, for v6, hand its untouched roots back in
// its frontier, which fails the job, so the pairing must fail loudly. A v7
// worker here would only echo keys nobody reads, but the reverse pairing — a
// v8 worker under a v7 coordinator — fails every result for the keys it does
// not echo, and one version rule serves both directions. A v8 worker would
// read a v9 task frame's leases as holding no subtrees.
func TestJoinRejectsOldProtocols(t *testing.T) {
	fp := baseFingerprint()
	c, caddr := startCoordinator(t, Config{Fingerprint: fp, LeaseTTL: time.Second})
	defer c.Stop()
	s, saddr := startServer(t, ServerConfig{})
	defer s.Close()

	for _, addr := range []string{caddr, saddr} {
		for old := 1; old < protoVersion; old++ {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := writeFrame(conn, &frame{Type: msgHello, Proto: old, Worker: "legacy", Slots: 1, Spec: &fp}); err != nil {
				t.Fatal(err)
			}
			_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			fr, _, err := readFrame(conn, maxFrameSize)
			if err != nil {
				t.Fatal(err)
			}
			if fr.Type != msgReject {
				t.Fatalf("v%d worker got %s frame, want reject", old, fr.Type)
			}
			if !strings.Contains(fr.Reason, fmt.Sprintf("protocol version %d", old)) || !strings.Contains(fr.Reason, fmt.Sprintf("speaks %d", protoVersion)) {
				t.Errorf("reject reason %q does not name both protocol versions", fr.Reason)
			}
			conn.Close()
		}
	}
}

// TestHelloFrameBounded: a peer that has not said hello may announce at most
// 64 KiB; a larger header closes the connection before anything is
// allocated for it, on the coordinator and on the server. After the welcome
// the same announcement is an ordinary (if large) frame.
func TestHelloFrameBounded(t *testing.T) {
	fp := baseFingerprint()
	c, caddr := startCoordinator(t, Config{Fingerprint: fp, LeaseTTL: time.Second})
	defer c.Stop()
	s, saddr := startServer(t, ServerConfig{})
	defer s.Close()

	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], maxHelloSize+1)
	for _, addr := range []string{caddr, saddr} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(hdr[:]); err != nil {
			t.Fatal(err)
		}
		// The peer hangs up on the header alone: no body was sent, so a read
		// loop waiting for 64 KiB + 1 bytes would sit here until the deadline.
		_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		if n, err := conn.Read(make([]byte, 1)); err != io.EOF {
			t.Errorf("%s: oversized hello header answered with %d bytes, err %v; want the connection closed", addr, n, err)
		}
		conn.Close()
	}
	if _, _, err := readFrame(bytes.NewReader(hdr[:]), maxHelloSize); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Errorf("readFrame accepted a %d-byte announcement under the hello cap: %v", maxHelloSize+1, err)
	}

	// Past the handshake the cap is the frame cap: a joined worker's
	// heartbeat padded beyond 64 KiB is read, not refused.
	f := dialFake(t, caddr, fp, strings.Repeat("w", maxHelloSize/2), 1)
	defer f.close()
	f.recvTask()
	f.send(&frame{Type: msgHeartbeat, Worker: strings.Repeat("h", 2*maxHelloSize)})
	f.send(&frame{Type: msgHeartbeat})
	waitStatus(t, c, "frames past the hello cap", func(st Status) bool { return st.FramesIn >= 3 && st.WireBytesIn > 2*maxHelloSize })
}

// TestResumeRejectsEachMismatch: a coordinator resuming a checkpoint under
// different exploration parameters must fail with a clear error, field by
// field — the frontier's decision prefixes are only meaningful in the space
// that produced them.
func TestResumeRejectsEachMismatch(t *testing.T) {
	ckp := &dexplore.Checkpoint{Version: 1, Workload: "matmul", Procs: 6, Space: baseFingerprint().Space}
	good := Config{Fingerprint: baseFingerprint(), Resume: ckp}
	if _, err := New(good); err != nil {
		t.Fatalf("matching resume rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*JobSpec)
		want   string
	}{
		{"workload", func(f *JobSpec) { f.Workload = "adlb" }, "workload"},
		{"procs", func(f *JobSpec) { f.Procs = 8 }, "procs"},
		{"clock", func(f *JobSpec) { f.Clock = core.VectorClock }, "clock"},
		{"dual-clock", func(f *JobSpec) { f.DualClock = true }, "dual-clock"},
		{"transport", func(f *JobSpec) { f.Transport = core.Inband }, "transport"},
		{"mixing-bound", func(f *JobSpec) { f.MixingBound = 3 }, "mixing bound"},
		{"autoloop", func(f *JobSpec) { f.AutoLoopThreshold = 4 }, "autoloop"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fp := baseFingerprint()
			tc.mutate(&fp)
			_, err := New(Config{Fingerprint: fp, Resume: ckp})
			if err == nil {
				t.Fatalf("resume with mismatched %s accepted", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestResumeAcceptsUnnamedWorkloadCheckpoint: checkpoints written by the
// single-process engine carry no workload name; they resume under any name
// (only the parameter fields are comparable).
func TestResumeAcceptsUnnamedWorkloadCheckpoint(t *testing.T) {
	ckp := &dexplore.Checkpoint{Version: 1, Procs: 6, Space: baseFingerprint().Space}
	if _, err := New(Config{Fingerprint: baseFingerprint(), Resume: ckp}); err != nil {
		t.Fatalf("unnamed-workload checkpoint rejected: %v", err)
	}
}
