package dcoord

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"dampi/internal/core"
	"dampi/internal/dexplore"
	"dampi/mpi"
)

// baseFingerprint is a fully populated fingerprint so every field mutation
// is distinguishable from the zero value.
func baseFingerprint() Fingerprint {
	return Fingerprint{
		Workload:          "matmul",
		Procs:             6,
		Clock:             core.Lamport,
		DualClock:         false,
		Transport:         core.Separate,
		MixingBound:       1,
		AutoLoopThreshold: 0,
	}
}

// TestFingerprintCheckEachMismatch: every fingerprint field mismatch is
// refused with an error naming the field — exploring under mismatched
// parameters would silently cover a different interleaving space.
func TestFingerprintCheckEachMismatch(t *testing.T) {
	base := baseFingerprint()
	if err := base.Check(base); err != nil {
		t.Fatalf("identical fingerprints rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Fingerprint)
		want   string
	}{
		{"workload", func(f *Fingerprint) { f.Workload = "adlb" }, "workload"},
		{"procs", func(f *Fingerprint) { f.Procs = 8 }, "procs"},
		{"clock", func(f *Fingerprint) { f.Clock = core.VectorClock }, "clock"},
		{"dual-clock", func(f *Fingerprint) { f.DualClock = true }, "dual-clock"},
		{"transport", func(f *Fingerprint) { f.Transport = core.Inband }, "transport"},
		{"mixing-bound", func(f *Fingerprint) { f.MixingBound = 2 }, "mixing bound"},
		{"autoloop", func(f *Fingerprint) { f.AutoLoopThreshold = 5 }, "autoloop"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			worker := base
			tc.mutate(&worker)
			err := base.Check(worker)
			if err == nil {
				t.Fatalf("mismatched %s accepted", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name %q", err, tc.want)
			}
		})
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
	if _, err := writeFrame(conn, &frame{Type: msgHello, Proto: protoVersion + 7, Worker: "future", Slots: 1, Fingerprint: &fp}); err != nil {
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
// task key (protocol 3) or the subtree lease (protocol 4) are refused at
// hello, by a one-shot coordinator and by a job-queue server alike, with an
// error naming both versions. An old worker would drop the frames it does not
// know — batched tasks for v1, job announcements for v2 — or, for v3, be sent
// keys it ignores and have its own results checked against them, or, for v4,
// find no task in a lease and answer with no delta, so the pairing must fail
// loudly.
func TestJoinRejectsOldProtocols(t *testing.T) {
	fp := baseFingerprint()
	c, caddr := startCoordinator(t, Config{Fingerprint: fp, LeaseTTL: time.Second})
	defer c.Stop()
	s, saddr := startServer(t, ServerConfig{})
	defer s.Close(false)

	for _, addr := range []string{caddr, saddr} {
		for _, old := range []int{1, 2, 3, 4} {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := writeFrame(conn, &frame{Type: msgHello, Proto: old, Worker: "legacy", Slots: 1, Fingerprint: &fp}); err != nil {
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
			if !strings.Contains(fr.Reason, fmt.Sprintf("protocol version %d", old)) || !strings.Contains(fr.Reason, "speaks 5") {
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
	defer s.Close(false)

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
	ckp := &dexplore.Checkpoint{
		Version:     1,
		Workload:    "matmul",
		Procs:       6,
		Clock:       core.Lamport,
		Transport:   core.Separate,
		MixingBound: 1,
	}
	good := Config{Fingerprint: baseFingerprint(), Resume: ckp}
	if _, err := New(good); err != nil {
		t.Fatalf("matching resume rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Fingerprint)
		want   string
	}{
		{"workload", func(f *Fingerprint) { f.Workload = "adlb" }, "workload"},
		{"procs", func(f *Fingerprint) { f.Procs = 8 }, "procs"},
		{"clock", func(f *Fingerprint) { f.Clock = core.VectorClock }, "clock"},
		{"dual-clock", func(f *Fingerprint) { f.DualClock = true }, "dual-clock"},
		{"transport", func(f *Fingerprint) { f.Transport = core.Inband }, "transport"},
		{"mixing-bound", func(f *Fingerprint) { f.MixingBound = 3 }, "k="},
		{"autoloop", func(f *Fingerprint) { f.AutoLoopThreshold = 4 }, "autoloop"},
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
	ckp := &dexplore.Checkpoint{
		Version:     1,
		Procs:       6,
		Clock:       core.Lamport,
		Transport:   core.Separate,
		MixingBound: 1,
	}
	if _, err := New(Config{Fingerprint: baseFingerprint(), Resume: ckp}); err != nil {
		t.Fatalf("unnamed-workload checkpoint rejected: %v", err)
	}
}
