package dexplore

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"dampi/internal/core"
	"dampi/mpi"
)

// fullSpace is a Space with every field set, sampling under strategy.
func fullSpace(strategy string) Space {
	return Space{
		Clock: core.VectorClock, DualClock: true, Transport: core.Inband, MixingBound: 2, AutoLoopThreshold: 3,
		ChoicePoints: true, SampleStrategy: strategy, Samples: 24, SampleSeed: 7, SampleDepth: 2,
	}
}

// exhaustiveSpace is fullSpace without a sampler.
func exhaustiveSpace() Space {
	s := fullSpace("")
	s.Samples, s.SampleSeed = 0, 0
	return s
}

// mutateField returns a copy of s whose i'th field alone holds another value.
func mutateField(t *testing.T, s Space, i int) Space {
	t.Helper()
	f := reflect.ValueOf(&s).Elem().Field(i)
	switch f.Kind() {
	case reflect.Bool:
		f.SetBool(!f.Bool())
	case reflect.Int:
		f.SetInt(f.Int() + 1)
	case reflect.Uint64:
		f.SetUint(f.Uint() + 1)
	case reflect.String: // the sampling strategy: another one a sampler can be built for
		f.SetString(map[string]string{"random": "pct", "pct": "random"}[f.String()])
	default:
		t.Fatalf("Space field %d is a %s: teach the drift test to mutate it", i, f.Kind())
	}
	return s
}

// TestSpaceFieldsCannotDrift walks Space by reflection, so a field added to it
// and forgotten in spaceFields, SpaceOf, Apply or the checkpoint fails here:
// mutating each field alone makes Diff and Checkpoint.Validate return an error
// naming it, the mutant survives a JSON round trip through a Checkpoint, and
// SpaceOf inverts Apply for exhaustive, random and pct spaces.
func TestSpaceFieldsCannotDrift(t *testing.T) {
	typ := reflect.TypeOf(Space{})
	if len(spaceFields) != typ.NumField() {
		t.Fatalf("spaceFields lists %d fields, Space has %d", len(spaceFields), typ.NumField())
	}
	base := fullSpace("random")
	if err := base.Diff(base, "a", "b"); err != nil {
		t.Fatalf("a space differs from itself: %v", err)
	}
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if reflect.ValueOf(base).Field(i).IsZero() {
			t.Fatalf("fullSpace leaves %s zero: set it, or a forgotten copy of it reads back equal", name)
		}
		mut := mutateField(t, base, i)
		want := spaceFields[i].name + " mismatch: here "
		if err := base.Diff(mut, "here", "there"); err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("%s mutated: Diff = %v, want an error starting %q", name, err, want)
		}
		if got := spaceFields[i].get(&mut); got != reflect.ValueOf(mut).Field(i).Interface() {
			t.Errorf("spaceFields[%d] (%q) reads %v, not Space.%s", i, spaceFields[i].name, got, name)
		}

		cfg := core.ExplorerConfig{Procs: 4}
		mut.Apply(&cfg)
		ckp := NewCheckpoint("", &core.ExplorerConfig{Procs: 4}, &core.Report{}, nil)
		ckp.Space = base
		if err := ckp.Validate("", &cfg); err == nil || !strings.Contains(err.Error(), spaceFields[i].name+" mismatch: checkpoint ") {
			t.Errorf("%s mutated: Checkpoint.Validate = %v, want an error naming %q", name, err, spaceFields[i].name)
		}
		ckp.Space = mut
		if err := ckp.Validate("", &cfg); err != nil {
			t.Errorf("%s mutated on both sides: Checkpoint.Validate = %v", name, err)
		}
		if got := rewriteCheckpoint(t, ckp).Space; got != mut {
			t.Errorf("%s mutated: the checkpoint reads back %+v, wrote %+v", name, got, mut)
		}
	}
	for _, s := range []Space{{}, exhaustiveSpace(), base, fullSpace("pct")} {
		cfg := core.ExplorerConfig{Procs: 4}
		s.Apply(&cfg)
		if got := SpaceOf(&cfg); got != s {
			t.Errorf("SpaceOf(Apply(s)) = %+v, want %+v", got, s)
		}
		if (cfg.Sampler != nil) != (s.SampleStrategy != "") {
			t.Errorf("Apply(%+v) built sampler %v", s, cfg.Sampler)
		}
	}
}

// TestSpaceDiffPanicsOnUnlistedField: a difference Diff's table cannot name is
// a bug in the table, not two equal spaces.
func TestSpaceDiffPanicsOnUnlistedField(t *testing.T) {
	saved := spaceFields
	defer func() {
		spaceFields = saved
		if recover() == nil {
			t.Error("Diff compared two different spaces equal once the differing field left its table")
		}
	}()
	spaceFields = spaceFields[1:]
	a, b := Space{}, Space{Clock: core.VectorClock}
	_ = a.Diff(b, "a", "b")
}

// TestCustomSamplerHasAnIdentity: a sampler the tree does not know still
// reads back as a sampling space, so its checkpoint never resumes exhaustively.
func TestCustomSamplerHasAnIdentity(t *testing.T) {
	cfg := core.ExplorerConfig{Procs: 2, Sampler: customExpander{}}
	if got := SpaceOf(&cfg).SampleStrategy; got != customSampler {
		t.Fatalf("custom sampler reads back as strategy %q", got)
	}
	ckp := NewCheckpoint("", &cfg, &core.Report{}, nil)
	if err := ckp.Validate("", &core.ExplorerConfig{Procs: 2}); err == nil || !strings.Contains(err.Error(), "sample strategy") {
		t.Errorf("custom-sampler checkpoint under an exhaustive config: %v", err)
	}
}

type customExpander struct{}

func (customExpander) Expand(*core.SubtreeTask, *core.ExplorerConfig, *core.RunTrace) *core.Expansion {
	return &core.Expansion{}
}

// TestParentCheckpointResavesByteIdentical: exhaustive checkpoints written
// when Space's fields were declared one by one in Checkpoint load and re-save
// to the same bytes — embedding flattened them in place. The PR 18 fixture
// (dampi -workload iprobe -procs 2 -choice-points -dual -transport inband
// -autoloop 3 -k 2 -workers 1 -max 2) sets every field an exhaustive run can
// and is compared whole; checkpoint_parent.json predates the sorted decisions
// codec ("10" before "2" inside a frontier entry), so it is compared byte for
// byte up to the first decisions and as a JSON value beyond.
func TestParentCheckpointResavesByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		path  string
		upTo  string // "" = the whole file
		space Space
	}{
		{"testdata/checkpoint_pr18_exhaustive.json", "", Space{DualClock: true, Transport: core.Inband, MixingBound: 2, AutoLoopThreshold: 3, ChoicePoints: true}},
		{"testdata/checkpoint_parent.json", `"frontier"`, Space{}},
	} {
		want, err := os.ReadFile(tc.path)
		if err != nil {
			t.Fatal(err)
		}
		ckp, err := LoadCheckpoint(tc.path)
		if err != nil {
			t.Fatal(err)
		}
		if ckp.Space != tc.space {
			t.Errorf("%s: loaded space %+v, want %+v", tc.path, ckp.Space, tc.space)
		}
		var buf bytes.Buffer
		if err := ckp.Write(&buf); err != nil {
			t.Fatal(err)
		}
		got := buf.Bytes()
		var gotv, wantv any
		if err := json.Unmarshal(got, &gotv); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(want, &wantv); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotv, wantv) {
			t.Errorf("%s: changed as a JSON value across load and save", tc.path)
		}
		n := len(want)
		if tc.upTo != "" {
			n = bytes.Index(want, []byte(tc.upTo))
		}
		if n <= 0 || len(got) < n || !bytes.Equal(got[:n], want[:n]) {
			t.Errorf("%s: the first %d bytes changed across load and save:\n got %s\nwant %s", tc.path, n, got[:min(n, len(got))], want[:max(n, 0)])
		}
	}
}

// TestParentSamplingCheckpointRefused: the parent commit recorded a sampling
// exploration's strategy, budget and seed as one "sampler" string this version
// does not write. Dropping the key on load would leave a checkpoint that
// compares equal to an exhaustive -choice-points config and runs the sampler's
// walk tasks without a sampler; instead it is refused, the sampler named,
// under every config — the one that wrote it included.
func TestParentSamplingCheckpointRefused(t *testing.T) {
	const path = "testdata/checkpoint_parent_sampling.json" // dampi -workload iprobe -procs 2 -sample random -samples 24 -seed 7 -workers 1 -max 3
	ckp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	walks := 0
	for _, task := range ckp.Frontier {
		if task.Sample != nil {
			walks++
		}
	}
	if ckp.LegacySampler == "" || walks == 0 {
		t.Fatalf("fixture lost its point: sampler %q, %d walk tasks", ckp.LegacySampler, walks)
	}
	exhaustive := core.ExplorerConfig{Procs: 2, MixingBound: core.Unbounded, ChoicePoints: true, Program: func(*mpi.Proc) error { return nil }}
	sampling := exhaustive
	Space{MixingBound: core.Unbounded, ChoicePoints: true, SampleStrategy: "random", Samples: 24, SampleSeed: 7}.Apply(&sampling)
	for name, cfg := range map[string]core.ExplorerConfig{"exhaustive": exhaustive, "sampling": sampling} {
		_, err := New(Config{Explorer: cfg, Workers: 1, Resume: ckp}).Explore()
		if err == nil || !strings.Contains(err.Error(), `sampler="random:samples=24:seed=7:procs=2"`) {
			t.Errorf("%s config resumed the parent's sampling checkpoint: %v", name, err)
		}
	}
	// The key is read, never written.
	out, err := json.Marshal(NewCheckpoint("", &sampling, &core.Report{}, nil))
	if err != nil || bytes.Contains(out, []byte(`"sampler"`)) || !bytes.Contains(out, []byte(`"sample_strategy":"random","samples":24,"sample_seed":7`)) {
		t.Errorf("a sampling checkpoint now marshals as %s (err %v)", out, err)
	}
}
