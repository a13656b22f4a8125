package sample_test

import (
	"testing"

	"dampi/internal/core"
	"dampi/internal/dexplore"
	"dampi/internal/sample"
)

// TestSignatureDistinguishesParameters: any schedule-determining parameter
// change changes the identity the sampler reads back as — the dexplore.Space
// that checkpoints, job specs and the cluster handshake compare, beside the
// world size each of them carries next to it.
func TestSignatureDistinguishesParameters(t *testing.T) {
	type identity struct {
		space dexplore.Space
		procs int
	}
	seen := map[identity]string{}
	for name, cfg := range map[string]sample.Config{
		"base":     {Strategy: sample.Random, Samples: 24, Seed: 7, Procs: 4},
		"strategy": {Strategy: sample.PCT, Samples: 24, Seed: 7, Procs: 4},
		"samples":  {Strategy: sample.Random, Samples: 25, Seed: 7, Procs: 4},
		"seed":     {Strategy: sample.Random, Samples: 24, Seed: 8, Procs: 4},
		"procs":    {Strategy: sample.Random, Samples: 24, Seed: 7, Procs: 5},
	} {
		s := sample.New(cfg)
		ecfg := core.ExplorerConfig{Procs: s.Config().Procs, Sampler: s}
		id := identity{dexplore.SpaceOf(&ecfg), ecfg.Procs}
		if prev, dup := seen[id]; dup {
			t.Errorf("%s and %s read back as the same exploration: %+v", name, prev, id)
		}
		seen[id] = name
	}
	if got := dexplore.SpaceOf(&core.ExplorerConfig{Procs: 4}); got != (dexplore.Space{}) {
		t.Errorf("an exhaustive config reads back as %+v, want the zero Space", got)
	}
}
