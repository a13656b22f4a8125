package mpilint

import "go/ast"

// rleak: a request created by Isend/Issend/Irecv must reach a completion
// call (Wait/Test/Waitall/Waitany/Testall/Testany/Waitsome/Cancel) — the
// static mirror of the dynamic R-leak check the mpi runtime keeps
// (World.RequestLeaks). A request that escapes the function (returned,
// stored, passed on) is assumed completed elsewhere; a request with no
// completion and no escape leaks on every path through the function.

var rleakCheck = &checkDef{
	name:     "rleak",
	doc:      "nonblocking request never completed by the Wait/Test family (static R-leak)",
	severity: SevError,
	run:      runRleak,
}

func isReqCompletion(mc *mpiCall) bool {
	return reqCompletionsSingle[mc.method] || reqCompletionsSlice[mc.method]
}

func runRleak(fc *funcCtx) {
	for _, mc := range fc.calls {
		if !requestMakers[mc.method] {
			continue
		}
		bind, bound := fc.bindingIdent(mc.call, 0)
		if !bound {
			// The request result is not bound at all (the call is an
			// expression statement or its results feed another expression):
			// if it is a bare statement the request is dropped on the floor.
			if _, isStmt := fc.parent[mc.call].(*ast.ExprStmt); isStmt {
				fc.reportf(mc.call, "request returned by %s is discarded without Wait/Test (R-leak)", mc.method)
			}
			continue
		}
		if bind == nil || bind.Name == "_" {
			fc.reportf(mc.call, "request returned by %s is assigned to _ and never completed (R-leak)", mc.method)
			continue
		}
		res := fc.traceValue(bind, isReqCompletion, requestMethods, false)
		if !res.released && !res.escapes {
			fc.reportf(mc.call, "request %s returned by %s is never completed by the Wait/Test family on any path (R-leak)",
				bind.Name, mc.method)
		}
	}
}
