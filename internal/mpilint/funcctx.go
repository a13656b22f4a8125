package mpilint

import (
	"go/ast"
)

// funcCtx is the per-function state handed to each check: the classified
// scope, a parent map for climbing the syntax tree, and every MPI call in
// source order.
type funcCtx struct {
	pass  *pass
	scope *funcScope
	file  *ast.File
	decl  *ast.FuncDecl
	body  *ast.BlockStmt

	check  *checkDef // the check currently running (set by the driver)
	parent map[ast.Node]ast.Node
	calls  []*mpiCall
}

func newFuncCtx(p *pass, cls *classifier, file *ast.File, fd *ast.FuncDecl) *funcCtx {
	fc := &funcCtx{
		pass:   p,
		scope:  cls.scopeFor(file, fd),
		file:   file,
		decl:   fd,
		body:   fd.Body,
		parent: map[ast.Node]ast.Node{},
	}
	var stack []ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			fc.parent[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		if e, ok := n.(ast.Expr); ok {
			if mc := fc.scope.asMPICall(e); mc != nil {
				fc.calls = append(fc.calls, mc)
			}
		}
		return true
	})
	return fc
}

func (fc *funcCtx) reportf(pos ast.Node, format string, args ...any) {
	fc.pass.report(fc.check, pos.Pos(), format, args...)
}

// reportChoicef reports a diagnostic marked as a dynamic choice point (an
// AnySource receive or probe the explorer branches on).
func (fc *funcCtx) reportChoicef(pos ast.Node, format string, args ...any) {
	fc.pass.reportOpts(fc.check, pos.Pos(), true, format, args...)
}

func (fc *funcCtx) line(n ast.Node) int {
	return fc.pass.fset.Position(n.Pos()).Line
}

// obj resolves an identifier to a comparable object: the types.Object when
// type information is available, the *ast.Object otherwise, nil for blank
// or unresolved identifiers.
func (fc *funcCtx) obj(id *ast.Ident) any {
	if id == nil || id.Name == "_" {
		return nil
	}
	if ti := fc.scope.c.ti; ti != nil && ti.info != nil {
		if o := ti.info.Defs[id]; o != nil {
			return o
		}
		if o := ti.info.Uses[id]; o != nil {
			return o
		}
	}
	if id.Obj != nil {
		return id.Obj
	}
	return nil
}

// bindingIdent returns the identifier the i-th result of call is bound to
// (via := / = / var), nil if the call's results are not bound that way, and
// whether the call is bound at all.
func (fc *funcCtx) bindingIdent(call *ast.CallExpr, i int) (id *ast.Ident, bound bool) {
	switch parent := fc.parent[call].(type) {
	case *ast.AssignStmt:
		if len(parent.Rhs) == 1 && parent.Rhs[0] == ast.Expr(call) && i < len(parent.Lhs) {
			if lid, ok := parent.Lhs[i].(*ast.Ident); ok {
				return lid, true
			}
			return nil, true
		}
	case *ast.ValueSpec:
		if len(parent.Values) == 1 && parent.Values[0] == ast.Expr(call) && i < len(parent.Names) {
			return parent.Names[i], true
		}
	}
	return nil, false
}

// enclosingStmtList finds the statement list containing n and n's index in
// it, climbing to the nearest BlockStmt / CaseClause / CommClause.
func (fc *funcCtx) enclosingStmtList(n ast.Node) ([]ast.Stmt, int) {
	for cur := n; cur != nil; cur = fc.parent[cur] {
		p := fc.parent[cur]
		var list []ast.Stmt
		switch pp := p.(type) {
		case *ast.BlockStmt:
			list = pp.List
		case *ast.CaseClause:
			list = pp.Body
		case *ast.CommClause:
			list = pp.Body
		default:
			continue
		}
		for i, st := range list {
			if ast.Node(st) == cur {
				return list, i
			}
		}
	}
	return nil, -1
}

// --- value tracing (shared by rleak and cleak) ---

// traceResult summarizes what a function body does with a tracked value.
type traceResult struct {
	// released: the value reached its releasing operation (Wait/Test family
	// for requests, CommFree for communicators).
	released bool
	// escapes: the value left the function's view (returned, stored, passed
	// to an unknown function) so the analyzer cannot conclude a leak.
	escapes bool
}

// traceValue tracks every use of the value bound to start, following
// aliases, slice carriers (append / composite literals / index stores) and
// range loops, and classifies each use.
//
//   - released(mc) decides whether an MPI call releases the value
//   - neutralMethods are methods on the value that neither release nor leak
//   - neutralMPIUse: a non-releasing MPI call taking the value is neutral
//     (true for communicators — sending on a comm does not free it; false
//     for requests)
//
// The trace is flow-insensitive: a release anywhere in the function counts,
// so a Wait on only some paths is not flagged (documented under-
// approximation).
func (fc *funcCtx) traceValue(start *ast.Ident, released func(mc *mpiCall) bool,
	neutralMethods map[string]bool, neutralMPIUse bool) traceResult {

	var res traceResult
	startObj := fc.obj(start)
	if startObj == nil {
		return traceResult{escapes: true}
	}
	tracked := map[any]bool{startObj: true}
	queue := []any{startObj}
	enqueue := func(id *ast.Ident) {
		o := fc.obj(id)
		if o == nil || tracked[o] {
			return
		}
		tracked[o] = true
		queue = append(queue, o)
	}

	// usesOf finds every identifier in the body resolving to o, except the
	// binding occurrence itself.
	usesOf := func(o any) []*ast.Ident {
		var out []*ast.Ident
		ast.Inspect(fc.body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id != start && fc.obj(id) == o {
				out = append(out, id)
			}
			return true
		})
		return out
	}

	for len(queue) > 0 && !res.escapes {
		o := queue[0]
		queue = queue[1:]
		for _, id := range usesOf(o) {
			fc.classifyUse(id, &res, released, neutralMethods, neutralMPIUse, enqueue)
			if res.escapes {
				break
			}
		}
	}
	return res
}

// classifyUse climbs from one identifier use and updates the trace result.
func (fc *funcCtx) classifyUse(id *ast.Ident, res *traceResult,
	released func(mc *mpiCall) bool,
	neutralMethods map[string]bool, neutralMPIUse bool, enqueue func(*ast.Ident)) {

	var child ast.Node = id
	for {
		parent := fc.parent[child]
		if parent == nil {
			return
		}
		switch p := parent.(type) {
		case *ast.ParenExpr:
			child = p
			continue
		case *ast.IndexExpr:
			if p.X == child {
				// use of carrier element or element store: keep climbing
				child = p
				continue
			}
			return // used as an index: neutral
		case *ast.SliceExpr:
			if p.X == child {
				child = p
				continue
			}
			return
		case *ast.SelectorExpr:
			// method call or field read on the value: neutral when known
			if p.X == child {
				if neutralMethods[p.Sel.Name] {
					return
				}
				// Unknown selector on the value (field access): escape-free
				// reads are fine; stay conservative and treat as neutral
				// only for known methods.
				res.escapes = true
				return
			}
			return
		case *ast.CallExpr:
			if p.Fun == child {
				return // the value itself is being called — not ours
			}
			// value appears among the arguments
			if mc := fc.scope.asMPICall(p); mc != nil {
				if released(mc) {
					res.released = true
					return
				}
				if neutralMPIUse {
					return
				}
				res.escapes = true
				return
			}
			if fn, ok := p.Fun.(*ast.Ident); ok && fn.Name == "append" && len(p.Args) > 0 {
				if ast.Node(p.Args[0]) == child {
					// carrier being extended; the result re-binds below
					child = p
					continue
				}
				// value appended into a carrier: follow the carrier
				if tgt, bound := fc.bindingIdent(p, 0); bound {
					if tgt != nil {
						enqueue(tgt)
					}
					return
				}
				// append result used some other way
				child = p
				continue
			}
			if fn, ok := p.Fun.(*ast.Ident); ok && (fn.Name == "len" || fn.Name == "cap") {
				return
			}
			// passed to an unknown function
			res.escapes = true
			return
		case *ast.CompositeLit:
			// value placed in a composite literal; if it is a request slice
			// literal, follow where the literal goes
			if fc.scope.kindOf(p) == kReqSlice {
				child = p
				continue
			}
			res.escapes = true
			return
		case *ast.KeyValueExpr:
			res.escapes = true
			return
		case *ast.AssignStmt:
			for i, rhs := range p.Rhs {
				if ast.Node(rhs) == child && len(p.Lhs) == len(p.Rhs) {
					// alias: lhs := value — follow the alias; or store into
					// an element/field
					switch lhs := p.Lhs[i].(type) {
					case *ast.Ident:
						enqueue(lhs)
						return
					case *ast.IndexExpr:
						if base := baseIdent(lhs.X); base != nil {
							enqueue(base)
							return
						}
					}
					res.escapes = true
					return
				}
			}
			return // on the LHS: a re-binding, neutral
		case *ast.ReturnStmt:
			res.escapes = true
			return
		case *ast.SendStmt, *ast.GoStmt:
			res.escapes = true
			return
		case *ast.UnaryExpr:
			res.escapes = true // &value
			return
		case *ast.BinaryExpr:
			return // comparisons: neutral
		case *ast.RangeStmt:
			if ast.Node(p.X) == child {
				// ranging over a carrier: follow the element variable
				if vid, ok := p.Value.(*ast.Ident); ok {
					enqueue(vid)
				}
				return
			}
			return
		case *ast.IfStmt, *ast.ForStmt, *ast.SwitchStmt, *ast.CaseClause,
			*ast.ExprStmt, *ast.DeferStmt, *ast.IncDecStmt:
			return
		case *ast.ValueSpec:
			for i, v := range p.Values {
				if ast.Node(v) == child && i < len(p.Names) {
					enqueue(p.Names[i])
					return
				}
			}
			return
		default:
			res.escapes = true
			return
		}
	}
}
