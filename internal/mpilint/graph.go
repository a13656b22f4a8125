package mpilint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/parser"
	"go/token"
	"strings"

	"dampi/internal/commgraph"
)

// This file extracts commgraph.Summary values from mpi.Proc programs: the
// static communication summaries behind the whole-program graph checks
// (orphan, tagmismatch, wilddet, cycle) and the explorer's prune hints.
//
// A program root is a function with the exact signature
//
//	func(p *mpi.Proc) error
//
// (declared or a literal) that no other function in the package calls —
// the shape verify.Config.Program requires. Extraction walks the root's
// body in program order, resolving peers/tags/communicators to symbolic
// expressions over (rank, size), tracking branch guards from if/switch
// over rank/size, inlining same-package helper calls that take the proc,
// and assuming error-free execution (an `if err != nil { return }` arm is
// taken to be dead). Anything it cannot model — closures doing MPI, the
// proc escaping into unknown code, go/select/goto — marks the summary
// incomplete, which disables both the graph checks and hint derivation
// for that root.

// --- graph check definitions -------------------------------------------

var orphanCheck = &checkDef{
	name:     "orphan",
	doc:      "send/recv with no statically feasible matching peer (graph)",
	severity: SevError,
	graph:    true,
}

var tagmismatchCheck = &checkDef{
	name:     "tagmismatch",
	doc:      "matched send/recv pair with incompatible tag or payload type (graph)",
	severity: SevError,
	graph:    true,
}

var wilddetCheck = &checkDef{
	name:     "wilddet",
	doc:      "wildcard receive whose static match set is a singleton (informational, graph)",
	severity: SevInfo,
	graph:    true,
}

var cycleCheck = &checkDef{
	name:     "cycle",
	doc:      "potential deadlock cycle of blocking receives in the static waits-for graph",
	severity: SevError,
	graph:    true,
}

var graphChecks = []*checkDef{orphanCheck, tagmismatchCheck, wilddetCheck, cycleCheck}

// runGraphChecks runs the whole-program graph checks over one package.
func runGraphChecks(p *pass, cls *classifier, fset *token.FileSet, files []*ast.File, checks []*checkDef) {
	selected := map[string]*checkDef{}
	for _, c := range checks {
		if c.graph {
			selected[c.name] = c
		}
	}
	if len(selected) == 0 {
		return
	}
	for _, sum := range extractUnit(cls, fset, files) {
		for _, f := range commgraph.Analyze(sum, commgraph.DefaultSizes) {
			if chk, ok := selected[f.Check]; ok {
				p.report(chk, f.Pos, "%s", f.Message)
			}
		}
	}
}

// ProgramSummaries extracts the communication summary of every program root
// in the packages named by paths (same path syntax as Run). Callers decide
// what to do with incomplete summaries.
func ProgramSummaries(paths []string, opts Options) ([]*commgraph.Summary, error) {
	units, err := expandPaths(paths, opts.IncludeTests)
	if err != nil {
		return nil, err
	}
	tc := lockChecker()
	defer checkerMu.Unlock()
	fset := tc.fset
	var out []*commgraph.Summary
	for _, u := range units {
		var files []*ast.File
		for _, path := range u.files {
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("mpilint: %w", err)
			}
			files = append(files, f)
		}
		if len(files) == 0 || isRuntimePackage(files) {
			continue
		}
		var info *typeInfo
		if !opts.NoTypeCheck {
			info = tc.check(u.dir, files)
		}
		cls := newClassifier(fset, files, info)
		out = append(out, extractUnit(cls, fset, files)...)
	}
	return out, nil
}

// --- root discovery ----------------------------------------------------

// isProgramType reports whether ft is exactly func(*mpi.Proc) error.
func isProgramType(cls *classifier, file *ast.File, ft *ast.FuncType) bool {
	alias := cls.mpiAlias[file]
	if ft.Params == nil || ft.Results == nil {
		return false
	}
	if len(ft.Params.List) != 1 || len(ft.Results.List) != 1 {
		return false
	}
	p := ft.Params.List[0]
	if len(p.Names) != 1 || cls.kindOfTypeExpr(p.Type, alias) != kProc {
		return false
	}
	r := ft.Results.List[0]
	if len(r.Names) != 0 {
		if len(r.Names) != 1 {
			return false
		}
	}
	id, ok := r.Type.(*ast.Ident)
	return ok && id.Name == "error"
}

// extractUnit finds every program root in the package and extracts its
// summary.
func extractUnit(cls *classifier, fset *token.FileSet, files []*ast.File) []*commgraph.Summary {
	x := &gx{cls: cls, fset: fset, helpers: map[string]*helperInfo{}}
	called := map[string]bool{}
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fd.Recv == nil {
				x.helpers[fd.Name.Name] = &helperInfo{decl: fd, file: f}
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok {
						called[id.Name] = true
					}
				}
				return true
			})
		}
	}
	var out []*commgraph.Summary
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Recv != nil {
				continue
			}
			if isProgramType(cls, f, fd.Type) && !called[fd.Name.Name] {
				out = append(out, x.extractRoot(f, fd, fd.Name.Name, fd.Body))
				continue
			}
			// Function literals with the program signature nested anywhere
			// (the workloads' `return func(p *mpi.Proc) error {...}` shape).
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				lit, ok := n.(*ast.FuncLit)
				if !ok {
					return true
				}
				if isProgramType(cls, f, lit.Type) {
					out = append(out, x.extractRoot(f, fd, fd.Name.Name, lit.Body))
					return false
				}
				return true
			})
		}
	}
	return out
}

// --- extraction machinery ----------------------------------------------

type helperInfo struct {
	decl *ast.FuncDecl
	file *ast.File
}

// gx is the per-package extraction state.
type gx struct {
	cls     *classifier
	fset    *token.FileSet
	helpers map[string]*helperInfo
	sum     *commgraph.Summary
	stack   []*ast.FuncDecl
}

// gframe is one function's extraction frame: the classified scope plus the
// symbolic values of inlined parameters and single-assignment locals.
type gframe struct {
	x     *gx
	scope *funcScope
	file  *ast.File
	body  *ast.BlockStmt

	// Inlined argument values, by parameter object.
	ints     map[any]*commgraph.Expr
	comms    map[any]commgraph.CommClass
	payloads map[any]commgraph.PayloadType

	// Single-assignment resolution: write counts and the sole RHS.
	writes    map[any]int
	single    map[any]ast.Expr
	commMade  map[any]bool // bound from CommDup/CommSplit: a resolved non-world comm
	resolving map[any]bool
}

// walkCtx carries the control-flow context down the statement walk.
type walkCtx struct {
	guard       *commgraph.Cond
	conditional bool
	inLoop      bool
}

func (x *gx) incomplete(format string, args ...any) {
	note := fmt.Sprintf(format, args...)
	x.sum.Complete = false
	for _, n := range x.sum.Notes {
		if n == note {
			return
		}
	}
	x.sum.Notes = append(x.sum.Notes, note)
}

func (x *gx) extractRoot(file *ast.File, enclosing *ast.FuncDecl, name string, body *ast.BlockStmt) *commgraph.Summary {
	pos := x.fset.Position(body.Pos())
	x.sum = &commgraph.Summary{Name: name, File: pos.Filename, Line: pos.Line, Complete: true}
	f := x.newFrame(file, enclosing, body)
	x.walk(f, body.List, walkCtx{guard: commgraph.True()})
	sum := x.sum
	x.sum = nil
	return sum
}

func (x *gx) newFrame(file *ast.File, scopeDecl *ast.FuncDecl, body *ast.BlockStmt) *gframe {
	f := &gframe{
		x:         x,
		scope:     x.cls.scopeFor(file, scopeDecl),
		file:      file,
		body:      body,
		ints:      map[any]*commgraph.Expr{},
		comms:     map[any]commgraph.CommClass{},
		payloads:  map[any]commgraph.PayloadType{},
		writes:    map[any]int{},
		single:    map[any]ast.Expr{},
		commMade:  map[any]bool{},
		resolving: map[any]bool{},
	}
	f.countWrites()
	return f
}

// objOf resolves an identifier to a comparable object (types.Object when
// available, *ast.Object otherwise).
func (x *gx) objOf(id *ast.Ident) any {
	if id == nil || id.Name == "_" {
		return nil
	}
	if ti := x.cls.ti; ti != nil && ti.info != nil {
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

// countWrites is the single-assignment prepass: it counts writes per local
// and records the sole right-hand side when a variable is written exactly
// once by a simple assignment.
func (f *gframe) countWrites() {
	bump := func(id *ast.Ident, n int) {
		if o := f.x.objOf(id); o != nil {
			f.writes[o] += n
		}
	}
	record := func(id *ast.Ident, rhs ast.Expr) {
		if o := f.x.objOf(id); o != nil {
			f.writes[o]++
			if _, dup := f.single[o]; !dup {
				f.single[o] = rhs
			} else {
				f.single[o] = nil
			}
		}
	}
	ast.Inspect(f.body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if st.Tok != token.ASSIGN && st.Tok != token.DEFINE {
				// Compound assignment (+=, …): value varies.
				for _, l := range st.Lhs {
					if id, ok := l.(*ast.Ident); ok {
						bump(id, 2)
					}
				}
				return true
			}
			if len(st.Lhs) == len(st.Rhs) {
				for i, l := range st.Lhs {
					if id, ok := l.(*ast.Ident); ok {
						record(id, st.Rhs[i])
					}
				}
			} else if len(st.Rhs) == 1 {
				// Multi-value: count writes; the int value of one result of a
				// multi-result call is unresolvable, but a communicator made
				// by CommDup/CommSplit is a known non-world comm.
				if mc := f.scope.asMPICall(st.Rhs[0]); mc != nil && commMakers[mc.method] && len(st.Lhs) > 0 {
					if id, ok := st.Lhs[0].(*ast.Ident); ok {
						if o := f.x.objOf(id); o != nil {
							f.commMade[o] = true
						}
					}
				}
				for _, l := range st.Lhs {
					if id, ok := l.(*ast.Ident); ok {
						bump(id, 1)
					}
				}
			}
		case *ast.ValueSpec:
			for i, id := range st.Names {
				if i < len(st.Values) {
					record(id, st.Values[i])
				} else {
					bump(id, 1)
				}
			}
		case *ast.IncDecStmt:
			if id, ok := st.X.(*ast.Ident); ok {
				bump(id, 2)
			}
		case *ast.RangeStmt:
			for _, e := range []ast.Expr{st.Key, st.Value} {
				if id, ok := e.(*ast.Ident); ok {
					bump(id, 2)
				}
			}
		case *ast.UnaryExpr:
			if st.Op == token.AND {
				if id := baseIdent(st.X); id != nil {
					bump(id, 2)
				}
			}
		}
		return true
	})
}

// evalExpr resolves e to a symbolic expression over (rank, size); nil when
// unresolved.
func (f *gframe) evalExpr(e ast.Expr) *commgraph.Expr {
	e = unparen(e)
	// go/types constant folding first: catches named constants, iota
	// groups, mpi.AnySource/AnyTag, and constant arithmetic.
	if ti := f.scope.c.ti; ti != nil && ti.info != nil {
		if tv, ok := ti.info.Types[e]; ok && tv.Value != nil && tv.Value.Kind() == constant.Int {
			if v, exact := constant.Int64Val(tv.Value); exact {
				return commgraph.Const(int(v))
			}
		}
	}
	switch ex := e.(type) {
	case *ast.BasicLit:
		if ex.Kind == token.INT {
			var v int
			if _, err := fmt.Sscanf(ex.Value, "%d", &v); err == nil {
				return commgraph.Const(v)
			}
		}
	case *ast.Ident, *ast.SelectorExpr:
		// mpi.AnySource / mpi.AnyTag (also covers dot imports).
		for _, name := range []string{"AnySource", "AnyTag"} {
			if f.scope.isMPIConst(e, name) {
				return commgraph.Const(-1)
			}
		}
		if id, ok := ex.(*ast.Ident); ok {
			return f.resolveIdent(id)
		}
	case *ast.CallExpr:
		if sel, ok := ex.Fun.(*ast.SelectorExpr); ok && len(ex.Args) == 0 {
			switch f.scope.kindOf(sel.X) {
			case kProc:
				switch sel.Sel.Name {
				case "Rank":
					return commgraph.Rank()
				case "Size":
					return commgraph.Size()
				}
			case kComm:
				if f.evalComm(sel.X) == commgraph.CommWorld {
					switch sel.Sel.Name {
					case "Rank", "WorldRank":
						return commgraph.Rank()
					case "Size":
						return commgraph.Size()
					}
				}
			}
		}
	case *ast.BinaryExpr:
		return commgraph.Bin(ex.Op.String(), f.evalExpr(ex.X), f.evalExpr(ex.Y))
	case *ast.UnaryExpr:
		if ex.Op == token.SUB {
			return commgraph.Neg(f.evalExpr(ex.X))
		}
	}
	return nil
}

func (f *gframe) resolveIdent(id *ast.Ident) *commgraph.Expr {
	o := f.x.objOf(id)
	if o == nil {
		return nil
	}
	if v, ok := f.ints[o]; ok {
		return v
	}
	if f.writes[o] == 1 && f.single[o] != nil && !f.resolving[o] {
		f.resolving[o] = true
		v := f.evalExpr(f.single[o])
		delete(f.resolving, o)
		return v
	}
	return nil
}

// evalComm classifies a communicator expression.
func (f *gframe) evalComm(e ast.Expr) commgraph.CommClass {
	e = unparen(e)
	switch ex := e.(type) {
	case *ast.CallExpr:
		if sel, ok := ex.Fun.(*ast.SelectorExpr); ok {
			if f.scope.kindOf(sel.X) == kProc && sel.Sel.Name == "CommWorld" {
				return commgraph.CommWorld
			}
		}
	case *ast.Ident:
		o := f.x.objOf(ex)
		if o == nil {
			return commgraph.CommUnknown
		}
		if c, ok := f.comms[o]; ok {
			return c
		}
		if f.writes[o] == 1 {
			if f.commMade[o] {
				return commgraph.CommOther
			}
			if rhs := f.single[o]; rhs != nil && !f.resolving[o] {
				f.resolving[o] = true
				c := f.evalComm(rhs)
				delete(f.resolving, o)
				return c
			}
		}
	}
	return commgraph.CommUnknown
}

// evalPayload classifies what a send packs.
func (f *gframe) evalPayload(e ast.Expr) commgraph.PayloadType {
	e = unparen(e)
	switch ex := e.(type) {
	case *ast.Ident:
		if ex.Name == "nil" {
			return commgraph.TypeUnknown
		}
		o := f.x.objOf(ex)
		if o != nil {
			if t, ok := f.payloads[o]; ok {
				return t
			}
			if f.writes[o] == 1 && f.single[o] != nil && !f.resolving[o] {
				f.resolving[o] = true
				t := f.evalPayload(f.single[o])
				delete(f.resolving, o)
				return t
			}
		}
	case *ast.CallExpr:
		switch f.mpiFuncName(ex) {
		case "EncodeFloat64":
			return commgraph.TypeFloat64
		case "EncodeInt64":
			return commgraph.TypeInt64
		}
		// []byte("...") conversion.
		if at, ok := ex.Fun.(*ast.ArrayType); ok && at.Len == nil {
			if id, ok := at.Elt.(*ast.Ident); ok && id.Name == "byte" {
				return commgraph.TypeBytes
			}
		}
	case *ast.CompositeLit:
		if at, ok := ex.Type.(*ast.ArrayType); ok && at.Len == nil {
			if id, ok := at.Elt.(*ast.Ident); ok && id.Name == "byte" {
				return commgraph.TypeBytes
			}
		}
	}
	return commgraph.TypeUnknown
}

// mpiFuncName returns the mpi package function called by e ("" when e is
// not a call of a package-level mpi function).
func (f *gframe) mpiFuncName(call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	if ti := f.scope.c.ti; ti != nil && ti.info != nil {
		if obj := ti.info.Uses[sel.Sel]; obj != nil {
			if obj.Pkg() != nil && obj.Pkg().Path() == mpiPkgPath {
				return sel.Sel.Name
			}
			return ""
		}
	}
	if id, ok := sel.X.(*ast.Ident); ok && id.Name == f.scope.alias {
		return sel.Sel.Name
	}
	return ""
}

// consumeType infers how the data bound to dataID is decoded downstream.
func (f *gframe) consumeType(dataID *ast.Ident) commgraph.PayloadType {
	o := f.x.objOf(dataID)
	if o == nil {
		return commgraph.TypeUnknown
	}
	var f64, i64 bool
	ast.Inspect(f.body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		arg, ok := unparen(call.Args[0]).(*ast.Ident)
		if !ok || f.x.objOf(arg) != o {
			return true
		}
		switch f.mpiFuncName(call) {
		case "DecodeFloat64":
			f64 = true
		case "DecodeInt64":
			i64 = true
		}
		return true
	})
	switch {
	case f64 && !i64:
		return commgraph.TypeFloat64
	case i64 && !f64:
		return commgraph.TypeInt64
	}
	return commgraph.TypeUnknown
}

// buildCond resolves a branch condition to a symbolic guard; ok is false
// when any part failed to resolve.
func (f *gframe) buildCond(e ast.Expr) (*commgraph.Cond, bool) {
	e = unparen(e)
	if ti := f.scope.c.ti; ti != nil && ti.info != nil {
		if tv, ok := ti.info.Types[e]; ok && tv.Value != nil && tv.Value.Kind() == constant.Bool {
			if constant.BoolVal(tv.Value) {
				return commgraph.True(), true
			}
			return commgraph.False(), true
		}
	}
	switch ex := e.(type) {
	case *ast.BinaryExpr:
		switch ex.Op {
		case token.LAND:
			a, aok := f.buildCond(ex.X)
			b, bok := f.buildCond(ex.Y)
			if aok && bok {
				return commgraph.And(a, b), true
			}
		case token.LOR:
			a, aok := f.buildCond(ex.X)
			b, bok := f.buildCond(ex.Y)
			if aok && bok {
				return commgraph.Or(a, b), true
			}
		case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
			lhs, rhs := f.evalExpr(ex.X), f.evalExpr(ex.Y)
			if lhs != nil && rhs != nil {
				return commgraph.Cmp(ex.Op.String(), lhs, rhs), true
			}
		}
	case *ast.UnaryExpr:
		if ex.Op == token.NOT {
			c, ok := f.buildCond(ex.X)
			if ok {
				return commgraph.Not(c), true
			}
		}
	}
	return commgraph.Unknown(), false
}

// errCheckVerdict recognizes the error-check idiom. Extraction assumes
// error-free execution: `err != nil` is taken false (+ its body dead),
// `err == nil` is taken true. Returns +1 (condition assumed true),
// -1 (assumed false), or 0 (not an error check).
func (f *gframe) errCheckVerdict(e ast.Expr) int {
	be, ok := unparen(e).(*ast.BinaryExpr)
	if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
		return 0
	}
	var other ast.Expr
	if id, ok := unparen(be.Y).(*ast.Ident); ok && id.Name == "nil" {
		other = be.X
	} else if id, ok := unparen(be.X).(*ast.Ident); ok && id.Name == "nil" {
		other = be.Y
	} else {
		return 0
	}
	if !f.isErrorExpr(unparen(other)) {
		return 0
	}
	if be.Op == token.NEQ {
		return -1
	}
	return +1
}

func (f *gframe) isErrorExpr(e ast.Expr) bool {
	if ti := f.scope.c.ti; ti != nil && ti.info != nil {
		if tv, ok := ti.info.Types[e]; ok && tv.Type != nil {
			return tv.Type.String() == "error"
		}
	}
	if id, ok := e.(*ast.Ident); ok {
		low := strings.ToLower(id.Name)
		return low == "err" || strings.HasSuffix(low, "err")
	}
	return false
}

// --- the statement walk -------------------------------------------------

// walk processes stmts under ctx and reports whether the statement list
// definitely terminates the function (ends in return on every path it
// models).
func (x *gx) walk(f *gframe, stmts []ast.Stmt, ctx walkCtx) bool {
	for _, stmt := range stmts {
		if x.walkStmt(f, stmt, &ctx) {
			return true
		}
	}
	return false
}

// walkStmt processes one statement; it may strengthen ctx.guard (after an
// if whose terminating arm excluded some ranks) or set ctx.conditional
// (after an unresolved branch that may have returned). Returns true when
// the statement definitely returns.
func (x *gx) walkStmt(f *gframe, stmt ast.Stmt, ctx *walkCtx) bool {
	switch st := stmt.(type) {
	case *ast.ExprStmt:
		x.handleExpr(f, st.X, *ctx)
	case *ast.AssignStmt:
		for _, r := range st.Rhs {
			x.handleExpr(f, r, *ctx)
		}
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						x.handleExpr(f, v, *ctx)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			x.handleExpr(f, r, *ctx)
		}
		return true
	case *ast.BlockStmt:
		return x.walk(f, st.List, *ctx)
	case *ast.LabeledStmt:
		return x.walkStmt(f, st.Stmt, ctx)
	case *ast.IfStmt:
		x.walkIf(f, st, ctx)
	case *ast.SwitchStmt:
		x.walkSwitch(f, st, ctx)
	case *ast.ForStmt:
		if st.Init != nil {
			x.walkStmt(f, st.Init, ctx)
		}
		if st.Cond != nil {
			x.handleExpr(f, st.Cond, *ctx)
		}
		inner := *ctx
		inner.inLoop = true
		inner.conditional = true
		x.walk(f, st.Body.List, inner)
	case *ast.RangeStmt:
		x.handleExpr(f, st.X, *ctx)
		inner := *ctx
		inner.inLoop = true
		inner.conditional = true
		x.walk(f, st.Body.List, inner)
	case *ast.GoStmt:
		if x.usesProc(f, st) {
			x.incomplete("goroutine uses the proc")
		}
	case *ast.DeferStmt:
		x.handleDefer(f, st)
	case *ast.SelectStmt:
		if x.usesProc(f, st) {
			x.incomplete("select statement uses the proc")
		}
	case *ast.BranchStmt:
		if st.Tok == token.GOTO {
			x.incomplete("goto is not modeled")
		}
	case *ast.TypeSwitchStmt:
		if x.usesProc(f, st) {
			x.incomplete("type switch uses the proc")
		}
	}
	return false
}

func (x *gx) walkIf(f *gframe, st *ast.IfStmt, ctx *walkCtx) {
	if st.Init != nil {
		x.walkStmt(f, st.Init, ctx)
	}
	switch f.errCheckVerdict(st.Cond) {
	case -1: // err != nil: assumed false, the body is dead
		if st.Else != nil {
			x.walkStmt(f, st.Else, ctx)
		}
		return
	case +1: // err == nil: assumed true
		x.walk(f, st.Body.List, *ctx)
		return
	}
	cond, resolved := f.buildCond(st.Cond)
	if resolved {
		thenCtx := *ctx
		thenCtx.guard = commgraph.And(ctx.guard, cond)
		thenTerm := x.walk(f, st.Body.List, thenCtx)
		if st.Else != nil {
			elseCtx := *ctx
			elseCtx.guard = commgraph.And(ctx.guard, commgraph.Not(cond))
			x.walkStmt(f, st.Else, &elseCtx)
		}
		if thenTerm {
			// Ranks satisfying cond returned; everything after runs under
			// the complement.
			ctx.guard = commgraph.And(ctx.guard, commgraph.Not(cond))
		}
		return
	}
	inner := *ctx
	inner.conditional = true
	thenTerm := x.walk(f, st.Body.List, inner)
	if st.Else != nil {
		elseCtx := inner
		x.walkStmt(f, st.Else, &elseCtx)
	}
	if thenTerm {
		// The branch may have returned on some unknown condition.
		ctx.conditional = true
	}
}

func (x *gx) walkSwitch(f *gframe, st *ast.SwitchStmt, ctx *walkCtx) {
	if st.Init != nil {
		x.walkStmt(f, st.Init, ctx)
	}
	var tag *commgraph.Expr
	resolved := true
	if st.Tag != nil {
		x.handleExpr(f, st.Tag, *ctx)
		tag = f.evalExpr(st.Tag)
		resolved = tag != nil
	}
	// Build each clause's guard.
	var caseConds []*commgraph.Cond
	var defaultIdx = -1
	for i, cs := range st.Body.List {
		cc := cs.(*ast.CaseClause)
		if cc.List == nil {
			defaultIdx = i
			caseConds = append(caseConds, nil)
			continue
		}
		var clause *commgraph.Cond
		for _, e := range cc.List {
			var c *commgraph.Cond
			if st.Tag != nil {
				v := f.evalExpr(e)
				if v == nil {
					resolved = false
				}
				c = commgraph.Cmp("==", tag, v)
			} else {
				var ok bool
				c, ok = f.buildCond(e)
				resolved = resolved && ok
			}
			if clause == nil {
				clause = c
			} else {
				clause = commgraph.Or(clause, c)
			}
		}
		caseConds = append(caseConds, clause)
	}
	if !resolved {
		inner := *ctx
		inner.conditional = true
		anyTerm := false
		for _, cs := range st.Body.List {
			if x.walk(f, cs.(*ast.CaseClause).Body, inner) {
				anyTerm = true
			}
		}
		if anyTerm {
			ctx.conditional = true
		}
		return
	}
	var termConds *commgraph.Cond
	for i, cs := range st.Body.List {
		cc := cs.(*ast.CaseClause)
		clause := caseConds[i]
		if i == defaultIdx {
			// default: none of the other cases matched.
			clause = commgraph.True()
			for j, other := range caseConds {
				if j != defaultIdx && other != nil {
					clause = commgraph.And(clause, commgraph.Not(other))
				}
			}
		}
		caseCtx := *ctx
		caseCtx.guard = commgraph.And(ctx.guard, clause)
		if x.walk(f, cc.Body, caseCtx) {
			if termConds == nil {
				termConds = clause
			} else {
				termConds = commgraph.Or(termConds, clause)
			}
		}
	}
	if termConds != nil {
		ctx.guard = commgraph.And(ctx.guard, commgraph.Not(termConds))
	}
}

// handleDefer ignores deferred completion/collective calls (they do not
// shape the p2p match graph) but refuses deferred point-to-point traffic or
// unknown proc uses.
func (x *gx) handleDefer(f *gframe, st *ast.DeferStmt) {
	if mc := f.scope.asMPICall(st.Call); mc != nil {
		switch mc.method {
		case "Send", "Ssend", "Isend", "Issend", "Recv", "Irecv", "Probe", "Iprobe",
			"Sendrecv", "SendInit", "RecvInit":
			x.incomplete("deferred %s is not modeled", mc.method)
		}
		return
	}
	if x.usesProc(f, st) {
		x.incomplete("deferred call uses the proc")
	}
}

// usesProc reports whether the subtree mentions a proc-classified value.
func (x *gx) usesProc(f *gframe, n ast.Node) bool {
	found := false
	ast.Inspect(n, func(nn ast.Node) bool {
		if found {
			return false
		}
		if e, ok := nn.(ast.Expr); ok {
			if id, isID := e.(*ast.Ident); isID && f.scope.kindOf(id) == kProc {
				found = true
				return false
			}
			if sel, isSel := e.(*ast.SelectorExpr); isSel && f.scope.kindOf(sel) == kProc {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// handleExpr scans one expression for MPI operations, helper calls to
// inline, and constructs the extractor refuses to model.
func (x *gx) handleExpr(f *gframe, e ast.Expr, ctx walkCtx) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch nn := n.(type) {
		case *ast.FuncLit:
			if x.usesProc(f, nn.Body) {
				x.incomplete("function literal uses the proc")
			}
			return false
		case *ast.CallExpr:
			if mc := f.scope.asMPICall(nn); mc != nil {
				x.recordOp(f, mc, ctx)
				return true // still scan args (nested Rank()/Encode calls are fine)
			}
			x.handleForeignCall(f, nn, ctx)
			return true
		}
		return true
	})
}

// handleForeignCall inlines same-package helpers that take the proc and
// marks the summary incomplete when the proc escapes to anything else.
func (x *gx) handleForeignCall(f *gframe, call *ast.CallExpr, ctx walkCtx) {
	procArg := false
	for _, a := range call.Args {
		if id, ok := unparen(a).(*ast.Ident); ok && f.scope.kindOf(id) == kProc {
			procArg = true
		}
	}
	if !procArg {
		return
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		x.incomplete("proc passed to unmodeled call")
		return
	}
	h := x.helpers[id.Name]
	if h == nil || h.decl.Body == nil {
		x.incomplete("proc passed to %s, which is not a same-package helper", id.Name)
		return
	}
	if len(x.stack) >= 8 {
		x.incomplete("helper inlining depth exceeded at %s", id.Name)
		return
	}
	for _, d := range x.stack {
		if d == h.decl {
			x.incomplete("recursive helper %s", id.Name)
			return
		}
	}
	params := flattenParams(h.decl.Type.Params)
	nf := x.newFrame(h.file, h.decl, h.decl.Body)
	for i, param := range params {
		if i >= len(call.Args) {
			break
		}
		o := x.objOf(param)
		if o == nil {
			continue
		}
		arg := call.Args[i]
		switch nf.scope.kindOf(param) {
		case kProc:
			// The callee scope already classifies its proc parameter.
		case kComm:
			nf.comms[o] = f.evalComm(arg)
		default:
			if v := f.evalExpr(arg); v != nil {
				nf.ints[o] = v
			}
			if t := f.evalPayload(arg); t != commgraph.TypeUnknown {
				nf.payloads[o] = t
			}
		}
	}
	x.stack = append(x.stack, h.decl)
	x.walk(nf, h.decl.Body.List, ctx)
	x.stack = x.stack[:len(x.stack)-1]
}

func flattenParams(fl *ast.FieldList) []*ast.Ident {
	if fl == nil {
		return nil
	}
	var out []*ast.Ident
	for _, field := range fl.List {
		out = append(out, field.Names...)
	}
	return out
}

// recordOp appends the summarized operation(s) for one recognized MPI call.
func (x *gx) recordOp(f *gframe, mc *mpiCall, ctx walkCtx) {
	args := mc.call.Args
	arg := func(i int) ast.Expr {
		if i < len(args) {
			return args[i]
		}
		return nil
	}
	base := commgraph.Op{
		Guard:       ctx.guard,
		Conditional: ctx.conditional,
		InLoop:      ctx.inLoop,
		Method:      mc.method,
		Pos:         mc.call.Pos(),
	}
	add := func(op commgraph.Op) {
		x.sum.Ops = append(x.sum.Ops, &op)
	}
	switch mc.method {
	case "Send", "Ssend", "Isend", "Issend", "SendInit":
		op := base
		op.Kind = commgraph.OpSend
		op.Peer = f.evalExpr(arg(0))
		op.Tag = f.evalExpr(arg(1))
		op.Payload = f.evalPayload(arg(2))
		op.Comm = f.evalComm(arg(3))
		op.Blocking = mc.method == "Send" || mc.method == "Ssend"
		if mc.method == "SendInit" {
			op.Conditional = true // fires on Startall, possibly repeatedly
		}
		add(op)
	case "Recv", "Irecv", "RecvInit":
		op := base
		op.Kind = commgraph.OpRecv
		op.Peer = f.evalExpr(arg(0))
		op.Tag = f.evalExpr(arg(1))
		op.Comm = f.evalComm(arg(2))
		op.Blocking = mc.method == "Recv"
		if mc.method == "RecvInit" {
			op.Conditional = true
		}
		if mc.method == "Recv" {
			if dataID := x.bindingIdentOf(f, mc.call, 0); dataID != nil {
				op.Consume = f.consumeType(dataID)
			}
		}
		add(op)
	case "Probe", "Iprobe":
		op := base
		op.Kind = commgraph.OpProbe
		op.Peer = f.evalExpr(arg(0))
		op.Tag = f.evalExpr(arg(1))
		op.Comm = f.evalComm(arg(2))
		op.Blocking = mc.method == "Probe"
		add(op)
	case "Sendrecv":
		send := base
		send.Kind = commgraph.OpSend
		send.Peer = f.evalExpr(arg(0))
		send.Tag = f.evalExpr(arg(1))
		send.Payload = f.evalPayload(arg(2))
		send.Comm = f.evalComm(arg(5))
		add(send)
		recv := base
		recv.Kind = commgraph.OpRecv
		recv.Peer = f.evalExpr(arg(3))
		recv.Tag = f.evalExpr(arg(4))
		recv.Comm = f.evalComm(arg(5))
		if dataID := x.bindingIdentOf(f, mc.call, 0); dataID != nil {
			recv.Consume = f.consumeType(dataID)
		}
		add(recv)
	default:
		switch {
		case collectives[mc.method]:
			op := base
			op.Kind = commgraph.OpCollective
			op.Blocking = true
			if len(args) > 0 {
				op.Comm = f.evalComm(arg(0))
			}
			add(op)
		case mpiMethodSet[mc.method]:
			// Completion family (Wait/Test/...), Startall, Cancel: they
			// occupy program order but carry no matching information.
			op := base
			op.Kind = commgraph.OpOther
			add(op)
		}
		// Rank/Size/CommWorld/World/...: not operations.
	}
}

// bindingIdentOf finds the identifier the i-th result of call is bound to
// by scanning the frame body (frames have no parent maps).
func (x *gx) bindingIdentOf(f *gframe, call *ast.CallExpr, i int) *ast.Ident {
	var out *ast.Ident
	ast.Inspect(f.body, func(n ast.Node) bool {
		if out != nil {
			return false
		}
		switch st := n.(type) {
		case *ast.AssignStmt:
			if len(st.Rhs) == 1 && st.Rhs[0] == ast.Expr(call) && i < len(st.Lhs) {
				if id, ok := st.Lhs[i].(*ast.Ident); ok && id.Name != "_" {
					out = id
				}
				return false
			}
		case *ast.ValueSpec:
			if len(st.Values) == 1 && st.Values[0] == ast.Expr(call) && i < len(st.Names) {
				if st.Names[i].Name != "_" {
					out = st.Names[i]
				}
				return false
			}
		}
		return true
	})
	return out
}
