package skeleton

import (
	"testing"

	"dampi/mpi"
)

func run(t *testing.T, procs int, program func(p *mpi.Proc) error) {
	t.Helper()
	w := mpi.NewWorld(mpi.Config{Procs: procs})
	if err := w.Run(program); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestHaloExchangeMixes(t *testing.T) {
	for _, frac := range []float64{0, 0.5, 1} {
		run(t, 8, func(p *mpi.Proc) error {
			return HaloExchange(p, p.CommWorld(), 3, 3, frac)
		})
	}
}

func TestHaloExchangeOddWorld(t *testing.T) {
	// Ranks whose hypercube neighbour is out of range skip that edge.
	run(t, 5, func(p *mpi.Proc) error {
		return HaloExchange(p, p.CommWorld(), 2, 3, 0.5)
	})
}

func TestCollectiveRounds(t *testing.T) {
	run(t, 4, func(p *mpi.Proc) error {
		c := p.CommWorld()
		if err := ReduceRounds(p, c, 3); err != nil {
			return err
		}
		if err := BarrierRounds(p, c, 2); err != nil {
			return err
		}
		if err := BcastRounds(p, c, 2); err != nil {
			return err
		}
		return TransposeRounds(p, c, 2)
	})
}

func TestWavefrontBothModes(t *testing.T) {
	run(t, 6, func(p *mpi.Proc) error {
		c := p.CommWorld()
		if err := Wavefront(p, c, 2, false); err != nil {
			return err
		}
		return Wavefront(p, c, 2, true)
	})
	run(t, 1, func(p *mpi.Proc) error {
		return Wavefront(p, p.CommWorld(), 2, true) // degenerate world
	})
}

func TestWildcardPairs(t *testing.T) {
	run(t, 8, func(p *mpi.Proc) error {
		return WildcardPairs(p, p.CommWorld(), 5)
	})
	// Odd world: the last rank has no partner.
	run(t, 5, func(p *mpi.Proc) error {
		return WildcardPairs(p, p.CommWorld(), 2)
	})
}
