package core

import (
	"errors"
	"math/rand"
	"testing"

	"dampi/mpi"
)

// TestInbandFig3: the in-band transport must preserve the coverage
// guarantee, including late sends that are never received (the post-run
// sweep reads their clocks out of the leftover payloads).
func TestInbandFig3(t *testing.T) {
	ex := NewExplorer(ExplorerConfig{
		Procs: 3, Program: fig3Program, Transport: Inband, MixingBound: Unbounded,
	})
	rep, err := ex.Explore()
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if rep.Interleavings != 2 || len(rep.Errors) != 1 {
		t.Fatalf("interleavings=%d errors=%d, want 2/1", rep.Interleavings, len(rep.Errors))
	}
	if !errors.Is(rep.Errors[0].Err, errBug) {
		t.Fatalf("wrong error: %v", rep.Errors[0].Err)
	}
}

// TestInbandPayloadsUnpacked: applications must see their own bytes and
// counts, not the packed representation.
func TestInbandPayloadsUnpacked(t *testing.T) {
	prog := func(p *mpi.Proc) error {
		c := p.CommWorld()
		switch p.Rank() {
		case 1:
			if err := p.Send(0, 0, []byte("exact-bytes"), c); err != nil {
				return err
			}
			return p.Send(0, 1, nil, c) // zero-length payload
		case 0:
			data, st, err := p.Recv(mpi.AnySource, 0, c)
			if err != nil {
				return err
			}
			if string(data) != "exact-bytes" || st.Count != len("exact-bytes") {
				t.Errorf("payload corrupted: %q count=%d", data, st.Count)
			}
			// Nonblocking path with Test-based completion.
			req, err := p.Irecv(1, 1, c)
			if err != nil {
				return err
			}
			for {
				st2, ok, err := p.Test(req)
				if err != nil {
					return err
				}
				if ok {
					if st2.Count != 0 || len(req.Data()) != 0 {
						t.Errorf("zero-length payload corrupted: count=%d len=%d", st2.Count, len(req.Data()))
					}
					return nil
				}
			}
		}
		return nil
	}
	ex := NewExplorer(ExplorerConfig{Procs: 2, Program: prog, Transport: Inband})
	rep, err := ex.Explore()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errored() {
		t.Fatalf("errors: %v (%v)", rep.Errors[0], rep.Errors[0].Err)
	}
}

// TestTransportsAgreeOnCoverage: both transports carry the same clocks, so
// full DFS must explore identical interleaving counts.
func TestTransportsAgreeOnCoverage(t *testing.T) {
	counts := map[Transport]int{}
	for _, tr := range []Transport{Separate, Inband} {
		rep, err := NewExplorer(ExplorerConfig{
			Procs: 4, Program: fanInProgram(4, 2), Transport: tr, MixingBound: Unbounded,
		}).Explore()
		if err != nil {
			t.Fatalf("%v: %v", tr, err)
		}
		if rep.Errored() {
			t.Fatalf("%v errors: %v", tr, rep.Errors)
		}
		counts[tr] = rep.Interleavings
	}
	if counts[Separate] != counts[Inband] {
		t.Fatalf("coverage diverged: separate=%d inband=%d", counts[Separate], counts[Inband])
	}
	if counts[Separate] != 36 {
		t.Errorf("coverage = %d, want (3!)^2 = 36", counts[Separate])
	}
}

// TestInbandGuidedReplay: reproducers work across the transport too.
func TestInbandGuidedReplay(t *testing.T) {
	ex := NewExplorer(ExplorerConfig{Procs: 3, Program: fig3Program, Transport: Inband, MixingBound: Unbounded})
	rep, err := ex.Explore()
	if err != nil {
		t.Fatal(err)
	}
	repro := rep.Errors[0].Decisions
	_, res, err := ExecuteRun(&ExplorerConfig{Procs: 3, Program: fig3Program, Transport: Inband}, repro)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res.Err, errBug) {
		t.Fatalf("replay diverged: %v", res.Err)
	}
}

func TestTransportString(t *testing.T) {
	if Separate.String() != "separate" || Inband.String() != "inband" {
		t.Fatal("bad transport strings")
	}
}

// TestQuickTransportsAgreeOnRandomPrograms: on randomly shaped fan-in
// programs, the two §II-D transports and both single/dual clock modes all
// cover exactly the same interleaving count — the mechanisms are
// interchangeable carriers of the same causality information.
func TestQuickTransportsAgreeOnRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 6; trial++ {
		procs := 3 + rng.Intn(2)
		rounds := 1 + rng.Intn(2)
		prog := fanInProgram(procs, rounds)
		counts := map[string]int{}
		for _, cfg := range []struct {
			name string
			c    ExplorerConfig
		}{
			{"separate", ExplorerConfig{Procs: procs, Program: prog, MixingBound: Unbounded}},
			{"inband", ExplorerConfig{Procs: procs, Program: prog, Transport: Inband, MixingBound: Unbounded}},
			{"dual", ExplorerConfig{Procs: procs, Program: prog, DualClock: true, MixingBound: Unbounded}},
			{"vector", ExplorerConfig{Procs: procs, Program: prog, Clock: VectorClock, MixingBound: Unbounded}},
		} {
			cfg.c.MaxInterleavings = 3000
			rep, err := NewExplorer(cfg.c).Explore()
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, cfg.name, err)
			}
			if rep.Errored() {
				t.Fatalf("trial %d %s: %v", trial, cfg.name, rep.Errors[0].Err)
			}
			counts[cfg.name] = rep.Interleavings
		}
		want := counts["separate"]
		for name, got := range counts {
			if got != want {
				t.Errorf("trial %d (procs=%d rounds=%d): %s covered %d, separate covered %d",
					trial, procs, rounds, name, got, want)
			}
		}
	}
}
