package mpilint

import "go/ast"

// cleak: a communicator created by CommDup/CommSplit must reach a CommFree
// — the static mirror of the dynamic C-leak check the mpi runtime keeps
// (World.CommLeaks). Using the communicator for traffic is neutral (it does
// not free it); escaping the function transfers the obligation to the
// caller.

var cleakCheck = &checkDef{
	name:     "cleak",
	doc:      "communicator from CommDup/CommSplit never freed with CommFree (static C-leak)",
	severity: SevError,
	run:      runCleak,
}

func isCommFree(mc *mpiCall) bool { return mc.method == "CommFree" }

func runCleak(fc *funcCtx) {
	for _, mc := range fc.calls {
		if !commMakers[mc.method] {
			continue
		}
		bind, bound := fc.bindingIdent(mc.call, 0)
		if !bound {
			if _, isStmt := fc.parent[mc.call].(*ast.ExprStmt); isStmt {
				fc.reportf(mc.call, "communicator returned by %s is discarded without CommFree (C-leak)", mc.method)
			}
			continue
		}
		if bind == nil || bind.Name == "_" {
			fc.reportf(mc.call, "communicator returned by %s is assigned to _ and never freed (C-leak)", mc.method)
			continue
		}
		res := fc.traceValue(bind, isCommFree, commMethods, true)
		if !res.released && !res.escapes {
			fc.reportf(mc.call, "communicator %s returned by %s is never freed with CommFree (C-leak)",
				bind.Name, mc.method)
		}
	}
}
