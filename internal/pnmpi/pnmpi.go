// Package pnmpi composes multiple tool layers (mpi.Hooks) into one, in the
// manner of PnMPI module stacking: on the way into the runtime (Pre* hooks
// and Init) layers run in stack order; on the way out (Post* hooks, Complete,
// AtFinalize) they run in reverse, so layer 0 brackets everything below it.
//
// Clock exchange on collectives is special-cased: exactly one layer may own
// the clock (the first layer providing CollClockIn); its contribution is used
// and the combined clock is delivered back to that layer only.
package pnmpi

import "dampi/mpi"

// Stack composes layers into a single mpi.Hooks. Nil layers are skipped.
func Stack(layers ...*mpi.Hooks) *mpi.Hooks {
	var ls []*mpi.Hooks
	for _, l := range layers {
		if l != nil {
			ls = append(ls, l)
		}
	}
	if len(ls) == 0 {
		return nil
	}
	if len(ls) == 1 {
		return ls[0]
	}
	out := &mpi.Hooks{}

	out.Init = func(p *mpi.Proc) {
		for _, l := range ls {
			if l.Init != nil {
				l.Init(p)
			}
		}
	}
	out.AtFinalize = func(p *mpi.Proc) {
		for i := len(ls) - 1; i >= 0; i-- {
			if ls[i].AtFinalize != nil {
				ls[i].AtFinalize(p)
			}
		}
	}
	out.PreSend = func(p *mpi.Proc, op *mpi.SendOp) {
		for _, l := range ls {
			if l.PreSend != nil {
				l.PreSend(p, op)
			}
		}
	}
	out.PostSend = func(p *mpi.Proc, op *mpi.SendOp, req *mpi.Request) {
		for i := len(ls) - 1; i >= 0; i-- {
			if ls[i].PostSend != nil {
				ls[i].PostSend(p, op, req)
			}
		}
	}
	out.PreRecv = func(p *mpi.Proc, op *mpi.RecvOp) {
		for _, l := range ls {
			if l.PreRecv != nil {
				l.PreRecv(p, op)
			}
		}
	}
	out.PostRecv = func(p *mpi.Proc, op *mpi.RecvOp, req *mpi.Request) {
		for i := len(ls) - 1; i >= 0; i-- {
			if ls[i].PostRecv != nil {
				ls[i].PostRecv(p, op, req)
			}
		}
	}
	out.PreWait = func(p *mpi.Proc, reqs []*mpi.Request) {
		for _, l := range ls {
			if l.PreWait != nil {
				l.PreWait(p, reqs)
			}
		}
	}
	out.Complete = func(p *mpi.Proc, req *mpi.Request, st mpi.Status) {
		for i := len(ls) - 1; i >= 0; i-- {
			if ls[i].Complete != nil {
				ls[i].Complete(p, req, st)
			}
		}
	}
	out.PreProbe = func(p *mpi.Proc, op *mpi.ProbeOp) {
		for _, l := range ls {
			if l.PreProbe != nil {
				l.PreProbe(p, op)
			}
		}
	}
	out.PostProbe = func(p *mpi.Proc, op *mpi.ProbeOp, st mpi.Status, found bool) {
		for i := len(ls) - 1; i >= 0; i-- {
			if ls[i].PostProbe != nil {
				ls[i].PostProbe(p, op, st, found)
			}
		}
	}
	out.PreColl = func(p *mpi.Proc, op *mpi.CollOp) {
		for _, l := range ls {
			if l.PreColl != nil {
				l.PreColl(p, op)
			}
		}
	}
	out.PostColl = func(p *mpi.Proc, op *mpi.CollOp) {
		for i := len(ls) - 1; i >= 0; i-- {
			if ls[i].PostColl != nil {
				ls[i].PostColl(p, op)
			}
		}
	}
	out.CollClockIn = func(p *mpi.Proc, op *mpi.CollOp) []uint64 {
		for _, l := range ls {
			if l.CollClockIn != nil {
				if c := l.CollClockIn(p, op); c != nil {
					return c
				}
			}
		}
		return nil
	}
	out.CollClockOut = func(p *mpi.Proc, op *mpi.CollOp, clock []uint64) {
		for _, l := range ls {
			if l.CollClockIn != nil { // clock owner
				if l.CollClockOut != nil {
					l.CollClockOut(p, op, clock)
				}
				return
			}
		}
	}
	out.PostCommCreate = func(p *mpi.Proc, parent, created mpi.Comm) {
		for i := len(ls) - 1; i >= 0; i-- {
			if ls[i].PostCommCreate != nil {
				ls[i].PostCommCreate(p, parent, created)
			}
		}
	}
	out.PostCommFree = func(p *mpi.Proc, c mpi.Comm) {
		for i := len(ls) - 1; i >= 0; i-- {
			if ls[i].PostCommFree != nil {
				ls[i].PostCommFree(p, c)
			}
		}
	}
	out.Pcontrol = func(p *mpi.Proc, level int, arg string) {
		for _, l := range ls {
			if l.Pcontrol != nil {
				l.Pcontrol(p, level, arg)
			}
		}
	}
	out.Idle = func(w *mpi.World) {
		for _, l := range ls {
			if l.Idle != nil {
				l.Idle(w)
			}
		}
	}
	return out
}
