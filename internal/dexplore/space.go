package dexplore

import (
	"fmt"

	"dampi/internal/core"
	"dampi/internal/sample"
)

// Space holds the parameters that, with the program and its world size, fix
// the interleaving space an exploration covers: the paper's Schedule
// Generator inputs — clock mode (§II-C/F), piggyback transport (§II-D),
// bounded-mixing k and loop abstraction (§III-B) — plus the choice-point and
// schedule-sampling extensions. Two nodes may share work, and a checkpoint may
// be resumed, only under equal Spaces. It is defined once and embedded, with
// these JSON names, in everything that carries or compares an exploration's
// identity: dcoord.JobSpec (the REST body, the WAL record, the job and hello
// frames, the dedup key) and Checkpoint. A new parameter is a field here, a
// line in spaceFields, a line each in SpaceOf and Apply; the drift tests walk
// the struct by reflection and fail on whichever was forgotten.
type Space struct {
	Clock             core.ClockMode `json:"clock"`
	DualClock         bool           `json:"dual_clock,omitempty"`
	Transport         core.Transport `json:"transport"`
	MixingBound       int            `json:"mixing_bound"`
	AutoLoopThreshold int            `json:"auto_loop_threshold,omitempty"`

	// Schedule sampling (all omitempty: an exhaustive space serializes, keys
	// and checkpoints exactly as before the sampling subsystem existed). Any
	// of them differing means two sides would derive different choice-point
	// spaces or different seeded schedule sets from the same trace.
	ChoicePoints   bool   `json:"choice_points,omitempty"`
	SampleStrategy string `json:"sample_strategy,omitempty"` // "" = exhaustive
	Samples        int    `json:"samples,omitempty"`
	SampleSeed     uint64 `json:"sample_seed,omitempty"`
	SampleDepth    int    `json:"sample_depth,omitempty"`
}

// spaceFields is the one table Diff walks, in declaration order: the name a
// mismatch is reported under, and the field.
var spaceFields = []struct {
	name string
	get  func(*Space) any
}{
	{"clock", func(s *Space) any { return s.Clock }},
	{"dual-clock", func(s *Space) any { return s.DualClock }},
	{"transport", func(s *Space) any { return s.Transport }},
	{"mixing bound", func(s *Space) any { return s.MixingBound }},
	{"autoloop", func(s *Space) any { return s.AutoLoopThreshold }},
	{"choice-points", func(s *Space) any { return s.ChoicePoints }},
	{"sample strategy", func(s *Space) any { return s.SampleStrategy }},
	{"sample budget", func(s *Space) any { return s.Samples }},
	{"sample seed", func(s *Space) any { return s.SampleSeed }},
	{"sample depth", func(s *Space) any { return s.SampleDepth }},
}

// customSampler is the strategy SpaceOf reports for a core.Sampler that is not
// this tree's: its checkpoints resume under another such sampler, and no
// JobSpec carrying it validates — a spec cannot rebuild it.
const customSampler = "custom"

// SpaceOf reads the space an explorer configuration describes. The sampler's
// parameters are read back normalized, as sample.New keeps them.
func SpaceOf(cfg *core.ExplorerConfig) Space {
	s := Space{
		Clock:             cfg.Clock,
		DualClock:         cfg.DualClock,
		Transport:         cfg.Transport,
		MixingBound:       cfg.MixingBound,
		AutoLoopThreshold: cfg.AutoLoopThreshold,
		ChoicePoints:      cfg.ChoicePoints,
		SampleDepth:       cfg.SampleDepth,
	}
	switch sm := cfg.Sampler.(type) {
	case nil:
	case *sample.Sampler:
		sc := sm.Config()
		s.SampleStrategy, s.Samples, s.SampleSeed = string(sc.Strategy), sc.Samples, sc.Seed
	default:
		s.SampleStrategy = customSampler
	}
	return s
}

// Apply is the inverse of SpaceOf: it sets cfg's exploration-space fields and,
// for a sampling space, builds the seeded sampler over cfg.Procs — the one
// place an engine's sampler is built, so every node derives the identical
// schedule set.
func (s Space) Apply(cfg *core.ExplorerConfig) {
	cfg.Clock = s.Clock
	cfg.DualClock = s.DualClock
	cfg.Transport = s.Transport
	cfg.MixingBound = s.MixingBound
	cfg.AutoLoopThreshold = s.AutoLoopThreshold
	cfg.ChoicePoints = s.ChoicePoints
	cfg.SampleDepth = s.SampleDepth
	cfg.Sampler = nil
	if s.SampleStrategy != "" {
		cfg.Sampler = sample.New(sample.Config{
			Strategy: sample.Strategy(s.SampleStrategy),
			Samples:  s.Samples,
			Seed:     s.SampleSeed,
			Procs:    cfg.Procs,
		})
	}
}

// Diff returns nil for equal spaces, and otherwise an error naming the first
// field that differs, with s's value under the label a and o's under b
// ("mixing bound mismatch: coordinator 1, worker 2").
func (s Space) Diff(o Space, a, b string) error {
	if s == o {
		return nil
	}
	for _, f := range spaceFields {
		if x, y := f.get(&s), f.get(&o); x != y {
			return Mismatch(f.name, a, x, b, y)
		}
	}
	panic("dexplore: two Spaces differ in a field spaceFields does not list")
}

// Mismatch is the error every identity comparison reports: the field, and
// each side's value (a string quoted) under its label.
func Mismatch(field, a string, x any, b string, y any) error {
	verb := "%v"
	if _, ok := x.(string); ok {
		verb = "%q"
	}
	return fmt.Errorf("%s mismatch: %s "+verb+", %s "+verb, field, a, x, b, y)
}
