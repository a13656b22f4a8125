package mpi

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// The rules of a communicator's tool context (PMPI.Tool), as programs.

// TestToolContextIsolation: traffic on the tool context never matches an
// application receive or probe on the communicator — wildcard source and tag,
// Iprobe, Test, Testany and Waitany included — and application traffic never
// matches a receive or probe on the tool context, although both carry the
// same (source, tag).
func TestToolContextIsolation(t *testing.T) {
	const tag, tagGo = 5, 6
	run(t, 2, func(p *Proc) error {
		pm, c := p.PMPI(), p.CommWorld()
		tc, err := pm.Tool(c)
		if err != nil {
			return err
		}
		if p.Rank() == 1 {
			if err := pm.Send(0, tag, []byte("tool"), tc); err != nil {
				return err
			}
			if err := p.Barrier(c); err != nil {
				return err
			}
			if _, _, err := p.Recv(0, tagGo, c); err != nil {
				return err
			}
			return p.Send(0, tag, []byte("app"), c)
		}
		if err := p.Barrier(c); err != nil { // the clock message is queued
			return err
		}
		if _, found, err := p.Iprobe(AnySource, AnyTag, c); err != nil || found {
			return fmt.Errorf("an application Iprobe sees tool traffic: found=%v, %v", found, err)
		}
		app, err := p.Irecv(AnySource, AnyTag, c)
		if err != nil {
			return err
		}
		if _, done, err := p.Test(app); err != nil || done {
			return fmt.Errorf("a wildcard application receive matched tool traffic: done=%v, %v", done, err)
		}
		if _, _, done, err := p.Testany([]*Request{app}); err != nil || done {
			return fmt.Errorf("Testany completed on tool traffic: done=%v, %v", done, err)
		}
		if st, found, err := pm.Iprobe(AnySource, AnyTag, tc); err != nil || !found || st != (Status{Source: 1, Tag: tag, Count: 4}) {
			return fmt.Errorf("the tool context's own probe: %+v found=%v, %v", st, found, err)
		}
		// The other way round: a wildcard receive waits on the tool context
		// while the application message arrives.
		tool, err := pm.Irecv(AnySource, AnyTag, tc)
		if err != nil {
			return err
		}
		if string(tool.Data()) != "tool" {
			return fmt.Errorf("the tool context delivered %q", tool.Data())
		}
		later, err := pm.Irecv(AnySource, AnyTag, tc)
		if err != nil {
			return err
		}
		if err := p.Send(1, tagGo, nil, c); err != nil {
			return err
		}
		if idx, st, err := p.Waitany([]*Request{app}); err != nil || idx != 0 || st.Source != 1 || string(app.Data()) != "app" {
			return fmt.Errorf("Waitany: %d %+v %q, %v", idx, st, app.Data(), err)
		}
		if _, done, err := pm.Test(later); err != nil || done {
			return fmt.Errorf("a wildcard receive on the tool context matched application traffic: done=%v, %v", done, err)
		}
		if _, found, err := pm.Iprobe(AnySource, AnyTag, tc); err != nil || found {
			return fmt.Errorf("a probe of the tool context sees application traffic: found=%v, %v", found, err)
		}
		_, err = pm.Cancel(later)
		return err
	})
}

// TestToolContextNonOvertaking: messages from one sender with one tag arrive
// in sending order in each context, however the two streams are interleaved
// and in whichever order the receiver drains them.
func TestToolContextNonOvertaking(t *testing.T) {
	const n, tag = 4, 9
	run(t, 2, func(p *Proc) error {
		pm, c := p.PMPI(), p.CommWorld()
		tc, err := pm.Tool(c)
		if err != nil {
			return err
		}
		if p.Rank() == 1 {
			for i := 0; i < n; i++ {
				if err := pm.Send(0, tag, []byte{'t', byte(i)}, tc); err != nil {
					return err
				}
				if err := p.Send(0, tag, []byte{'a', byte(i)}, c); err != nil {
					return err
				}
			}
			return nil
		}
		drain := func(kind byte, on Comm, src int) error {
			for i := 0; i < n; i++ {
				data, _, err := pm.Recv(src, tag, on)
				if err != nil {
					return err
				}
				if data[0] != kind || data[1] != byte(i) {
					return fmt.Errorf("receive %d on %s is %c%d, want %c%d", i, on, data[0], data[1], kind, i)
				}
			}
			return nil
		}
		if err := drain('a', c, AnySource); err != nil { // the later stream first
			return err
		}
		return drain('t', tc, 1)
	})
}

// TestToolContextLivesWithItsCommunicator: the context is reached from a live
// handle only; it has no collectives and no tool context of its own; and its
// requests say which context they are on.
func TestToolContextLivesWithItsCommunicator(t *testing.T) {
	run(t, 2, func(p *Proc) error {
		pm := p.PMPI()
		usage := func(what string, err error) error {
			var ue *UsageError
			if !errors.As(err, &ue) {
				return fmt.Errorf("%s: %v, want a UsageError", what, err)
			}
			return nil
		}
		dup, err := p.CommDup(p.CommWorld())
		if err != nil {
			return err
		}
		tc, err := pm.Tool(dup)
		if err != nil {
			return err
		}
		if tc.ID() >= 0 || tc.ID() == (Comm{}).ID() || tc.Name() != "world.dup.tool" || tc.Rank() != dup.Rank() || tc.Size() != dup.Size() {
			return fmt.Errorf("tool context of %s is %s", dup, tc)
		}
		if again, _ := pm.Tool(dup); again != tc {
			return fmt.Errorf("second Tool(%s) = %s, first %s", dup, again, tc)
		}
		wtc, err := pm.Tool(p.CommWorld())
		if err != nil {
			return err
		}
		req, err := pm.Irecv(1-p.Rank(), 0, wtc)
		if err != nil {
			return err
		}
		if req.Comm() != wtc || !strings.Contains(req.String(), "world.tool#-2") {
			return fmt.Errorf("a clock receive describes itself as %s on %s", req, req.Comm())
		}
		if _, err := pm.Cancel(req); err != nil {
			return err
		}
		_, errTool := pm.Tool(tc)
		_, errBarrier := pm.Barrier(tc, nil)
		_, errFree := pm.CommFree(tc, nil)
		for what, err := range map[string]error{
			"Tool of a tool context": errTool, "Barrier on a tool context": errBarrier, "CommFree of a tool context": errFree,
		} {
			if err := usage(what, err); err != nil {
				return err
			}
		}
		if _, err := pm.Tool(dup); err != nil {
			return fmt.Errorf("a refused CommFree of the tool context freed the communicator: %v", err)
		}
		if err := p.CommFree(dup); err != nil {
			return err
		}
		_, err = pm.Tool(dup)
		if err := usage("Tool after CommFree", err); err != nil {
			return err
		}
		_, err = pm.Isend(1-p.Rank(), 0, nil, tc)
		return usage("a send on the tool context of a freed communicator", err)
	})
}

// TestToolContextIsCarriedAndReset: on carried Pools the next world finds the
// tool context's storage on the communicator it claims — emptied — and a
// world that never asks never looks at it.
func TestToolContextIsCarriedAndReset(t *testing.T) {
	pools := NewPools(2)
	defer pools.Close()
	var carried *commInfo
	for world := 0; world < 3; world++ {
		w := NewWorld(Config{Procs: 2, Pools: pools})
		err := w.Run(func(p *Proc) error {
			c := p.CommWorld()
			if world == 1 {
				return p.Barrier(c) // no tool in this one
			}
			tc, err := p.PMPI().Tool(c)
			if err != nil {
				return err
			}
			if _, found, err := p.PMPI().Iprobe(AnySource, AnyTag, tc); err != nil || found {
				return fmt.Errorf("world %d starts with a message on its tool context: found=%v, %v", world, found, err)
			}
			// Left unreceived and unmatched on purpose.
			if _, err := p.PMPI().Isend(1-p.Rank(), 0, []byte("late"), tc); err != nil {
				return err
			}
			_, err = p.PMPI().Irecv(1-p.Rank(), 1, tc)
			return err
		})
		if err != nil {
			t.Fatalf("world %d: %v", world, err)
		}
		tool := w.worldComm.tool
		switch {
		case world == 0:
			carried = tool
		case tool != carried:
			t.Fatalf("world %d built a new tool context instead of taking the parked one", world)
		case world == 1 && w.worldComm.toolLive:
			t.Fatalf("a world no tool asked opened a tool context")
		}
	}
}
