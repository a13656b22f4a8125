package parmetis

import (
	"testing"

	"dampi/internal/trace"
	"dampi/mpi"
)

func TestCountsShapeMatchesTableI(t *testing.T) {
	// The Table I shape: Send-Recv per proc grows with log2(p); collectives
	// per proc shrink; the Wait:Send-Recv ratio falls.
	prevSR, prevColl := 0, 1<<30
	prevRatio := 1.0
	for _, p := range []int{8, 16, 32, 64, 128} {
		sr, coll, wait := Counts(p)
		if sr <= prevSR {
			t.Errorf("p=%d: sendrecv/proc %d not growing (prev %d)", p, sr, prevSR)
		}
		if coll >= prevColl {
			t.Errorf("p=%d: coll/proc %d not shrinking (prev %d)", p, coll, prevColl)
		}
		ratio := float64(wait) / float64(sr)
		if ratio >= prevRatio {
			t.Errorf("p=%d: wait ratio %.2f not falling (prev %.2f)", p, ratio, prevRatio)
		}
		prevSR, prevColl, prevRatio = sr, coll, ratio
	}
	// Anchor against the paper's Table I per-proc numbers (thousands).
	sr8, _, _ := Counts(8)
	if sr8 < 12000 || sr8 > 18000 {
		t.Errorf("Counts(8) sendrecv = %d, want ~15K", sr8)
	}
	sr128, coll128, _ := Counts(128)
	if sr128 < 44000 || sr128 > 56000 {
		t.Errorf("Counts(128) sendrecv = %d, want ~50K", sr128)
	}
	if coll128 < 1000 || coll128 > 2000 {
		t.Errorf("Counts(128) coll = %d, want ~1.4K", coll128)
	}
}

func TestProxyGeneratesCalibratedTraffic(t *testing.T) {
	// Measured per-proc op counts should be within 2x of the scaled targets
	// (the proxy rounds to whole exchange rounds).
	const procs, scale = 8, 50
	w := mpi.NewWorld(mpi.Config{Procs: procs})
	if err := w.Run(Program(Config{Scale: scale})); err != nil {
		t.Fatalf("Run: %v", err)
	}
	tot := trace.NewStats(procs, w.Ops()).Totals()
	srWant, collWant, _ := Counts(procs)
	srWant /= scale
	collWant /= scale
	srGot := int(tot.SendRecvPerProc())
	collGot := int(tot.CollPerProc())
	if srGot < srWant/2 || srGot > srWant*2 {
		t.Errorf("sendrecv/proc = %d, target %d", srGot, srWant)
	}
	if collGot < collWant/2 || collGot > collWant*2 {
		t.Errorf("coll/proc = %d, target %d", collGot, collWant)
	}
	if tot.Wait == 0 {
		t.Error("no waits generated")
	}
}

func TestProxyIsDeterministic(t *testing.T) {
	// ParMETIS is fully deterministic: no wildcard receives at all.
	w := mpi.NewWorld(mpi.Config{Procs: 4})
	if err := w.Run(Program(Config{Scale: 200})); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestNonPowerOfTwoWorld(t *testing.T) {
	for _, procs := range []int{3, 5, 7, 12} {
		w := mpi.NewWorld(mpi.Config{Procs: procs})
		if err := w.Run(Program(Config{Scale: 500})); err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
	}
}
