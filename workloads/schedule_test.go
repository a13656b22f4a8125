package workloads

import (
	"fmt"
	"slices"
	"testing"

	"dampi/internal/core"
	"dampi/mpi"
	"dampi/workloads/skeleton"
)

// completions returns a tool layer that logs every completion the application
// observes, in the order the world produced them, and the log.
func completions() (*mpi.Hooks, *[]string) {
	log := new([]string)
	return &mpi.Hooks{Complete: func(p *mpi.Proc, req *mpi.Request, st mpi.Status) {
		if req.Kind() == mpi.KindSend {
			*log = append(*log, fmt.Sprintf("%d->%d/%d@%d", p.Rank(), req.Peer(), req.Tag(), req.Comm().ID()))
		} else {
			*log = append(*log, fmt.Sprintf("%d<-%d/%d@%d", p.Rank(), st.Source, st.Tag, req.Comm().ID()))
		}
	}}, log
}

func diffAt(got, want []string) string {
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return fmt.Sprintf("completion %d is %s, natively %s", i, got[i], want[i])
		}
	}
	return fmt.Sprintf("%d completions, natively %d", len(got), len(want))
}

// TestSelfRunTakesTheNativeSchedule: the tool never bends the schedule. No
// DAMPI hook parks, polls or enters a collective, so the self run of an
// instrumented program completes its sends and receives in the global order
// the bare program does, on communicators numbered as the bare program's are
// — for every registered workload, both piggyback transports and both clocks.
// (With a shadow CommDup in the tool's Init every rank yielded once before its
// first line, and adlb, 126.lammps, CG, DT and MG took another schedule.)
func TestSelfRunTakesTheNativeSchedule(t *testing.T) {
	for _, w := range All() {
		procs := max(8, w.MinProcs)
		program := w.Program(Params{Procs: procs})
		hooks, native := completions()
		if err := mpi.NewWorld(mpi.Config{Procs: procs, Hooks: hooks}).Run(program); err != nil {
			t.Fatalf("%s natively: %v", w.Name, err)
		}
		for _, transport := range []core.Transport{core.Separate, core.Inband} {
			for _, clock := range []core.ClockMode{core.Lamport, core.VectorClock} {
				t.Run(fmt.Sprintf("%s/%v/%v", w.Name, transport, clock), func(t *testing.T) {
					var log *[]string
					rep, err := core.NewExplorer(core.ExplorerConfig{
						Procs: procs, Program: program, Transport: transport, Clock: clock,
						MaxInterleavings: 1,
						ExtraHooks: func() []*mpi.Hooks {
							var h *mpi.Hooks
							h, log = completions()
							return []*mpi.Hooks{h}
						},
					}).Explore()
					if err != nil || len(rep.Errors) > 0 {
						t.Fatalf("self run: %v, %v", err, rep.Errors)
					}
					if !slices.Equal(*log, *native) {
						t.Errorf("the instrumented self run leaves the native schedule: %s", diffAt(*log, *native))
					}
				})
			}
		}
	}
}

// gridProgram creates, uses and frees communicators the way examples/stencil
// (a split grid beside a monitor) and skeleton.LeakComm (a dup) do, with a
// wildcard fan-in on each, and reports the id of every communicator rank 1
// held, in creation order.
func gridProgram(ids *[]int) func(p *mpi.Proc) error {
	return func(p *mpi.Proc) error {
		world := p.CommWorld()
		color := 1
		if p.Rank() == 0 {
			color = 0
		}
		grid, err := p.CommSplit(world, color, p.Rank())
		if err != nil {
			return err
		}
		dup, err := p.CommDup(grid)
		if err != nil {
			return err
		}
		for _, c := range []mpi.Comm{grid, dup} {
			if _, err := skeleton.FanIn(p, c, 1); err != nil {
				return err
			}
		}
		if err := p.CommFree(grid); err != nil {
			return err
		}
		again, err := p.CommDup(world) // after a free: ids are not reused
		if err != nil {
			return err
		}
		if _, err := skeleton.FanIn(p, again, 1); err != nil {
			return err
		}
		if p.Rank() == 1 {
			*ids = []int{grid.ID(), dup.ID(), again.ID()}
		}
		return nil
	}
}

// TestInstrumentedRunNumbersCommunicatorsNatively: the communicator ids a
// verification reports are the ones the bare program sees. (A shadow per
// communicator took every other id: an instrumented run numbered its
// communicators 2, 4, 6 where the program alone has 1, 2, 3.)
func TestInstrumentedRunNumbersCommunicatorsNatively(t *testing.T) {
	const procs = 5
	var native []int
	if err := mpi.NewWorld(mpi.Config{Procs: procs}).Run(gridProgram(&native)); err != nil {
		t.Fatal(err)
	}
	// World is 0. The split makes the monitor's group (color 0) first, then
	// the grid: 1, 2. The monitor, alone in its group, dups it before the grid
	// ranks have all arrived in theirs: 3, 4. Then the dup of world.
	if want := []int{2, 4, 5}; !slices.Equal(native, want) {
		t.Fatalf("native communicator ids %v, want %v", native, want)
	}
	for _, transport := range []core.Transport{core.Separate, core.Inband} {
		var ids []int
		trace, res, err := core.ExecuteRun(&core.ExplorerConfig{Procs: procs, Program: gridProgram(&ids), Transport: transport}, nil)
		if err != nil || res.Err != nil {
			t.Fatalf("%v: %v, %v", transport, err, res.Err)
		}
		if !slices.Equal(ids, native) {
			t.Errorf("%v: Comm.ID() under the tool %v, natively %v", transport, ids, native)
		}
		var epochs []int // communicators with a wildcard epoch, in first-commit order
		for _, e := range trace.Epochs {
			if !slices.Contains(epochs, e.CommID) {
				epochs = append(epochs, e.CommID)
			}
		}
		if !slices.Equal(epochs, native) {
			t.Errorf("%v: EpochRecord.CommID values %v, want the native ids %v", transport, epochs, native)
		}
	}
}
