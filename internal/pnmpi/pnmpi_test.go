package pnmpi

import (
	"reflect"
	"sync"
	"testing"

	"dampi/mpi"
)

// recorder logs hook firings with a layer label.
func recorder(label string, log *[]string) *mpi.Hooks {
	rec := func(ev string) { *log = append(*log, label+":"+ev) }
	return &mpi.Hooks{
		Init:       func(p *mpi.Proc) { rec("init") },
		PreSend:    func(p *mpi.Proc, op *mpi.SendOp) { rec("presend") },
		PostSend:   func(p *mpi.Proc, op *mpi.SendOp, r *mpi.Request) { rec("postsend") },
		PreRecv:    func(p *mpi.Proc, op *mpi.RecvOp) { rec("prerecv") },
		PostRecv:   func(p *mpi.Proc, op *mpi.RecvOp, r *mpi.Request) { rec("postrecv") },
		Complete:   func(p *mpi.Proc, r *mpi.Request, st mpi.Status) { rec("complete") },
		PreColl:    func(p *mpi.Proc, op *mpi.CollOp) { rec("precoll") },
		PostColl:   func(p *mpi.Proc, op *mpi.CollOp) { rec("postcoll") },
		Pcontrol:   func(p *mpi.Proc, level int, arg string) { rec("pcontrol") },
		AtFinalize: func(p *mpi.Proc) { rec("finalize") },
	}
}

func TestStackOrdering(t *testing.T) {
	var log []string
	stacked := Stack(recorder("a", &log), recorder("b", &log))
	w := mpi.NewWorld(mpi.Config{Procs: 1, Hooks: stacked})
	err := w.Run(func(p *mpi.Proc) error {
		c := p.CommWorld()
		if err := p.Send(0, 0, []byte("x"), c); err != nil {
			return err
		}
		if _, _, err := p.Recv(0, 0, c); err != nil {
			return err
		}
		p.Pcontrol(1, "x")
		return p.Barrier(c)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{
		"a:init", "b:init",
		"a:presend", "b:presend", "b:postsend", "a:postsend",
		// blocking Send skips PreWait; Complete runs in reverse order
		"b:complete", "a:complete",
		"a:prerecv", "b:prerecv", "b:postrecv", "a:postrecv",
		"b:complete", "a:complete",
		"a:pcontrol", "b:pcontrol",
		"a:precoll", "b:precoll", "b:postcoll", "a:postcoll",
		"b:finalize", "a:finalize",
	}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("hook order:\n got %v\nwant %v", log, want)
	}
}

func TestStackNilAndSingle(t *testing.T) {
	if Stack() != nil {
		t.Fatal("empty stack should be nil")
	}
	if Stack(nil, nil) != nil {
		t.Fatal("all-nil stack should be nil")
	}
	h := &mpi.Hooks{}
	if Stack(nil, h) != h {
		t.Fatal("single layer should be returned unchanged")
	}
}

func TestClockOwnership(t *testing.T) {
	// Only the first clock-providing layer owns the collective clock.
	var mu sync.Mutex
	var gotOut []uint64
	owner := &mpi.Hooks{
		CollClockIn: func(p *mpi.Proc, op *mpi.CollOp) []uint64 { return []uint64{7} },
		CollClockOut: func(p *mpi.Proc, op *mpi.CollOp, c []uint64) {
			mu.Lock()
			gotOut = c
			mu.Unlock()
		},
	}
	other := &mpi.Hooks{
		CollClockIn: func(p *mpi.Proc, op *mpi.CollOp) []uint64 { return []uint64{99} },
		CollClockOut: func(p *mpi.Proc, op *mpi.CollOp, c []uint64) {
			t.Error("non-owner layer received clock")
		},
	}
	w := mpi.NewWorld(mpi.Config{Procs: 2, Hooks: Stack(owner, other)})
	err := w.Run(func(p *mpi.Proc) error {
		return p.Barrier(p.CommWorld())
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(gotOut) != 1 || gotOut[0] != 7 {
		t.Fatalf("owner clock out = %v, want [7] (max over ranks)", gotOut)
	}
}

// TestStackComposesEveryHook walks mpi.Hooks by reflection: a layer that sets
// any one hook is called through a two-layer stack, above or below a layer
// that sets nothing, so a hook added to mpi.Hooks cannot be dropped by Stack
// silently. A CollClockOut layer also sets CollClockIn: only the clock owner
// gets the combined clock back.
func TestStackComposesEveryHook(t *testing.T) {
	typ := reflect.TypeOf(mpi.Hooks{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Type.Kind() != reflect.Func {
			continue
		}
		for below := 0; below < 2; below++ {
			called := false
			layer := &mpi.Hooks{}
			set := func(name string) {
				ft := reflect.ValueOf(layer).Elem().FieldByName(name)
				ft.Set(reflect.MakeFunc(ft.Type(), func([]reflect.Value) []reflect.Value {
					if name == f.Name {
						called = true
					}
					out := make([]reflect.Value, ft.Type().NumOut())
					for j := range out {
						out[j] = reflect.Zero(ft.Type().Out(j))
					}
					return out
				}))
			}
			set(f.Name)
			if f.Name == "CollClockOut" {
				set("CollClockIn")
			}
			layers := []*mpi.Hooks{layer, {}}
			if below == 1 {
				layers[0], layers[1] = layers[1], layers[0]
			}
			hook := reflect.ValueOf(Stack(layers...)).Elem().Field(i)
			if hook.IsNil() {
				t.Errorf("%s: a two-layer stack leaves it nil", f.Name)
				continue
			}
			args := make([]reflect.Value, hook.Type().NumIn())
			for j := range args {
				args[j] = reflect.Zero(hook.Type().In(j))
			}
			hook.Call(args)
			if !called {
				t.Errorf("%s: the stack does not call it in layer %d of 2", f.Name, below)
			}
		}
	}
}
