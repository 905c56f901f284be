// Package lockorder builds a per-package static lock graph and enforces the
// engine's two locking invariants (see DESIGN.md §8):
//
//  1. No blocking operation while a mutex is held. A goroutine that parks
//     inside a critical section convoys every other contender of that lock
//     behind whatever it is waiting for — the PR 5 `blockFor` incident, where
//     a whole-lineage shuffle recompute ran under the exchange lock and every
//     concurrent reduce fetcher of *any* map output queued behind it.
//     Blocking operations are: channel sends and receives, selects without a
//     default, time.Sleep, sync.WaitGroup/sync.Cond Wait, process waits,
//     socket dials and reads/writes (net, bufio-over-conn, io interface
//     calls, the rdd frame codec, rdd.Transport calls), calls to
//     same-package functions that (transitively) do any of those, and calls
//     to functions annotated `//distenc:blocks -- reason`.
//
//  2. No lock-order cycles. For every mutex B acquired (directly, or by a
//     same-package callee) while mutex A is held, the pass records the edge
//     A→B; a cycle in that graph is a deadlock waiting for the right
//     interleaving. Lock identity is the (receiver type, field) pair — e.g.
//     `Cluster.mu` — so the order is checked across all instances.
//
// The tracker is intra-procedural and heuristic, tuned to the repo's locking
// idioms rather than full path sensitivity:
//
//   - `mu.Lock()` adds the lock to the held set, `mu.Unlock()` removes it,
//     and `defer mu.Unlock()` keeps it held to the end of the function.
//   - A branch that ends in return/break/continue/goto/panic has its
//     lock-set effects discarded (control never continues past it), so the
//     ubiquitous `if cond { mu.Unlock(); return }` guard keeps the lock held
//     on the fall-through path.
//   - Branches that fall through merge pessimistically for acquisition
//     (held if either branch acquired) and optimistically for release
//     (released if either branch released), which models the engine's
//     `if cond { mu.Lock() } … if cond { mu.Unlock() }` pairs.
//
// Deliberate blocking under a lock — e.g. the scheduler's serialMu, whose
// entire point is running one task body at a time — is waived per statement
// or per function with `//distenc:lockheld-ok -- reason`.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"distenc/internal/analysis/directives"
	"distenc/internal/analysis/framework"
)

// Analyzer is the lockorder pass.
var Analyzer = &framework.Analyzer{
	Name: "lockorder",
	Doc:  "flag blocking operations executed while a mutex is held and lock-acquisition order cycles (per-package static lock graph)",
	Run:  run,
}

// edge is one lock-order edge: to was acquired while from was held.
type edge struct {
	from, to string
	pos      token.Pos
}

// callSite is a statically resolved same-package call made with locks held.
type callSite struct {
	callee *types.Func
	pos    token.Pos
	held   []heldLock
	waived bool
}

// heldLock is one lock in the held set, with where it was acquired.
type heldLock struct {
	id  string
	pos token.Pos
}

// blockEvent is a directly blocking operation found with locks held.
type blockEvent struct {
	desc   string
	pos    token.Pos
	held   []heldLock
	waived bool
}

// funcFacts aggregates what one function body does with locks.
type funcFacts struct {
	obj      *types.Func // nil for function literals
	acquires map[string]token.Pos
	blocks   bool // contains a direct blocking operation
	calls    []callSite
	events   []blockEvent
	edges    []edge
}

type checker struct {
	pass  *framework.Pass
	dirs  *directives.Map
	decls map[*types.Func]*ast.FuncDecl
	funcs []*funcFacts
	// queue of function-literal bodies to analyze as independent roots
	// (goroutine bodies, deferred closures, callbacks): they do not run
	// under the spawning function's locks.
	lits []*ast.FuncLit
	seen map[*ast.FuncLit]bool
}

func run(pass *framework.Pass) (any, error) {
	c := &checker{
		pass:  pass,
		dirs:  directives.Scan(pass.Fset, pass.Files),
		decls: map[*types.Func]*ast.FuncDecl{},
		seen:  map[*ast.FuncLit]bool{},
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				c.decls[fn] = fd
			}
		}
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			c.analyzeBody(fn, fd, fd.Body)
		}
	}
	// Function literals reached from the roots (and from each other).
	for len(c.lits) > 0 {
		lit := c.lits[0]
		c.lits = c.lits[1:]
		c.analyzeBody(nil, nil, lit.Body)
	}
	c.report()
	return nil, nil
}

// analyzeBody walks one function body as an independent root with an empty
// held set.
func (c *checker) analyzeBody(fn *types.Func, decl *ast.FuncDecl, body *ast.BlockStmt) {
	f := &funcFacts{obj: fn, acquires: map[string]token.Pos{}}
	w := &walker{c: c, f: f}
	if decl != nil && c.hasDirective(decl, "lockheld-ok") {
		w.funcWaived = true
	}
	w.walkStmt(body, map[string]token.Pos{})
	c.funcs = append(c.funcs, f)
}

func (c *checker) hasDirective(node ast.Node, name string) bool {
	return c.dirs.Has(node, name)
}

// walker tracks the may-held lock set through one function body.
type walker struct {
	c          *checker
	f          *funcFacts
	stack      []ast.Stmt // enclosing statements, for waiver lookup
	funcWaived bool
}

func (w *walker) waived() bool {
	if w.funcWaived {
		return true
	}
	for _, s := range w.stack {
		if w.c.hasDirective(s, "lockheld-ok") {
			return true
		}
	}
	return false
}

func snapshot(held map[string]token.Pos) []heldLock {
	out := make([]heldLock, 0, len(held))
	for id, pos := range held {
		out = append(out, heldLock{id, pos})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

func clone(held map[string]token.Pos) map[string]token.Pos {
	out := make(map[string]token.Pos, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

// mergeBranches folds the fall-through branches of a conditional back into
// pre: a lock survives if every branch (and the pre state) still holds it
// — optimistic release — and a lock newly acquired by any branch is held —
// pessimistic acquisition.
func mergeBranches(pre map[string]token.Pos, branches []map[string]token.Pos) map[string]token.Pos {
	if len(branches) == 0 {
		return pre
	}
	out := map[string]token.Pos{}
	for id, pos := range pre {
		all := true
		for _, b := range branches {
			if _, ok := b[id]; !ok {
				all = false
				break
			}
		}
		if all {
			out[id] = pos
		}
	}
	for _, b := range branches {
		for id, pos := range b {
			if _, inPre := pre[id]; !inPre {
				if _, ok := out[id]; !ok {
					out[id] = pos
				}
			}
		}
	}
	return out
}

// walkStmt processes stmt, mutating held; it reports true when stmt
// unconditionally leaves the enclosing block (return, branch, panic), so
// callers can discard the branch's lock-set effects.
func (w *walker) walkStmt(stmt ast.Stmt, held map[string]token.Pos) bool {
	if stmt == nil {
		return false
	}
	w.stack = append(w.stack, stmt)
	defer func() { w.stack = w.stack[:len(w.stack)-1] }()

	switch s := stmt.(type) {
	case *ast.BlockStmt:
		for _, st := range s.List {
			if w.walkStmt(st, held) {
				return true
			}
		}
	case *ast.IfStmt:
		w.walkStmt(s.Init, held)
		w.walkExpr(s.Cond, held)
		thenHeld := clone(held)
		thenTerm := w.walkStmt(s.Body, thenHeld)
		elseHeld := clone(held)
		elseTerm := false
		if s.Else != nil {
			elseTerm = w.walkStmt(s.Else, elseHeld)
		}
		switch {
		case thenTerm && elseTerm && s.Else != nil:
			return true
		case thenTerm:
			replace(held, elseHeld)
		case elseTerm:
			replace(held, thenHeld)
		default:
			replace(held, mergeBranches(held, []map[string]token.Pos{thenHeld, elseHeld}))
		}
	case *ast.ForStmt:
		w.walkStmt(s.Init, held)
		w.walkExpr(s.Cond, held)
		body := clone(held)
		if !w.walkStmt(s.Body, body) {
			w.walkStmt(s.Post, body)
			replace(held, mergeBranches(held, []map[string]token.Pos{body}))
		}
	case *ast.RangeStmt:
		w.walkExpr(s.X, held)
		body := clone(held)
		if !w.walkStmt(s.Body, body) {
			replace(held, mergeBranches(held, []map[string]token.Pos{body}))
		}
	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		var init ast.Stmt
		var body *ast.BlockStmt
		hasDefault := false
		if sw, ok := s.(*ast.SwitchStmt); ok {
			init, body = sw.Init, sw.Body
			w.walkStmt(init, held)
			w.walkExpr(sw.Tag, held)
		} else {
			ts := s.(*ast.TypeSwitchStmt)
			init, body = ts.Init, ts.Body
			w.walkStmt(init, held)
		}
		var branches []map[string]token.Pos
		for _, cc := range body.List {
			cl := cc.(*ast.CaseClause)
			if cl.List == nil {
				hasDefault = true
			}
			for _, e := range cl.List {
				w.walkExpr(e, held)
			}
			bh := clone(held)
			term := false
			for _, st := range cl.Body {
				if w.walkStmt(st, bh) {
					term = true
					break
				}
			}
			if !term {
				branches = append(branches, bh)
			}
		}
		if !hasDefault {
			branches = append(branches, clone(held)) // no case may match
		}
		replace(held, mergeBranches(held, branches))
	case *ast.SelectStmt:
		hasDefault := false
		for _, cc := range s.Body.List {
			if cc.(*ast.CommClause).Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			w.f.blocks = true
			if len(held) > 0 {
				w.blockAt(s.Pos(), "select without a default case", held)
			}
		}
		var branches []map[string]token.Pos
		for _, cc := range s.Body.List {
			cl := cc.(*ast.CommClause)
			bh := clone(held)
			term := false
			for _, st := range cl.Body {
				if w.walkStmt(st, bh) {
					term = true
					break
				}
			}
			if !term {
				branches = append(branches, bh)
			}
		}
		replace(held, mergeBranches(held, branches))
	case *ast.SendStmt:
		w.walkExpr(s.Chan, held)
		w.walkExpr(s.Value, held)
		w.f.blocks = true
		if len(held) > 0 {
			w.blockAt(s.Pos(), "channel send", held)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.walkExpr(e, held)
		}
		return true
	case *ast.BranchStmt:
		return true
	case *ast.DeferStmt:
		// defer mu.Unlock() keeps the lock held to the end of the function;
		// other deferred work runs at return, outside this walk.
		if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			w.c.enqueueLit(lit)
		}
		for _, a := range s.Call.Args {
			w.walkExpr(a, held)
		}
	case *ast.GoStmt:
		if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			w.c.enqueueLit(lit)
		}
		for _, a := range s.Call.Args {
			w.walkExpr(a, held)
		}
	case *ast.ExprStmt:
		w.walkExpr(s.X, held)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.walkExpr(e, held)
		}
		for _, e := range s.Lhs {
			w.walkExpr(e, held)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						w.walkExpr(e, held)
					}
				}
			}
		}
	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt, held)
	case *ast.IncDecStmt:
		w.walkExpr(s.X, held)
	}
	return false
}

func replace(dst, src map[string]token.Pos) {
	for k := range dst {
		delete(dst, k)
	}
	for k, v := range src {
		dst[k] = v
	}
}

// walkExpr scans an expression for lock operations, blocking operations and
// same-package calls. Function literals become independent roots.
func (w *walker) walkExpr(expr ast.Expr, held map[string]token.Pos) {
	if expr == nil {
		return
	}
	switch e := expr.(type) {
	case *ast.FuncLit:
		w.c.enqueueLit(e)
		return
	case *ast.UnaryExpr:
		if e.Op == token.ARROW {
			w.f.blocks = true
			if len(held) > 0 {
				w.blockAt(e.Pos(), "channel receive", held)
			}
		}
		w.walkExpr(e.X, held)
		return
	case *ast.CallExpr:
		// Arguments evaluate before the call transfers control.
		w.walkExpr(e.Fun, held)
		for _, a := range e.Args {
			w.walkExpr(a, held)
		}
		w.handleCall(e, held)
		return
	case *ast.BinaryExpr:
		w.walkExpr(e.X, held)
		w.walkExpr(e.Y, held)
	case *ast.ParenExpr:
		w.walkExpr(e.X, held)
	case *ast.SelectorExpr:
		w.walkExpr(e.X, held)
	case *ast.IndexExpr:
		w.walkExpr(e.X, held)
		w.walkExpr(e.Index, held)
	case *ast.IndexListExpr:
		w.walkExpr(e.X, held)
		for _, i := range e.Indices {
			w.walkExpr(i, held)
		}
	case *ast.SliceExpr:
		w.walkExpr(e.X, held)
		w.walkExpr(e.Low, held)
		w.walkExpr(e.High, held)
		w.walkExpr(e.Max, held)
	case *ast.StarExpr:
		w.walkExpr(e.X, held)
	case *ast.TypeAssertExpr:
		w.walkExpr(e.X, held)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			w.walkExpr(el, held)
		}
	case *ast.KeyValueExpr:
		w.walkExpr(e.Value, held)
	}
}

// handleCall classifies one call: mutex operation, known-blocking callee, or
// same-package call to resolve in the cross-function phase.
func (w *walker) handleCall(call *ast.CallExpr, held map[string]token.Pos) {
	if id, op, ok := w.c.mutexOp(call); ok {
		switch op {
		case opLock:
			if _, already := held[id]; !already {
				for from, fpos := range held {
					if from != id {
						w.f.edges = append(w.f.edges, edge{from: from, to: id, pos: call.Pos()})
						_ = fpos
					}
				}
				held[id] = call.Pos()
				if _, ok := w.f.acquires[id]; !ok {
					w.f.acquires[id] = call.Pos()
				}
			}
		case opUnlock:
			delete(held, id)
		}
		return
	}
	if desc, ok := w.c.blockingCallee(call); ok {
		w.f.blocks = true
		if len(held) > 0 {
			w.blockAt(call.Pos(), desc, held)
		}
		return
	}
	if fn, ok := w.c.samePkgCallee(call); ok {
		w.f.calls = append(w.f.calls, callSite{
			callee: fn,
			pos:    call.Pos(),
			held:   snapshot(held),
			waived: w.waived(),
		})
	}
}

func (w *walker) blockAt(pos token.Pos, desc string, held map[string]token.Pos) {
	w.f.blocks = true
	w.f.events = append(w.f.events, blockEvent{
		desc:   desc,
		pos:    pos,
		held:   snapshot(held),
		waived: w.waived(),
	})
}

func (c *checker) enqueueLit(lit *ast.FuncLit) {
	if !c.seen[lit] {
		c.seen[lit] = true
		c.lits = append(c.lits, lit)
	}
}

type mutexOpKind int

const (
	opNone mutexOpKind = iota
	opLock
	opUnlock
)

// mutexOp recognizes sync.Mutex / sync.RWMutex method calls and resolves the
// lock's package-wide identity: `Type.field` for a mutex struct field, the
// variable name otherwise.
func (c *checker) mutexOp(call *ast.CallExpr) (string, mutexOpKind, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", opNone, false
	}
	var op mutexOpKind
	switch sel.Sel.Name {
	case "Lock", "RLock", "TryLock", "TryRLock":
		op = opLock
	case "Unlock", "RUnlock":
		op = opUnlock
	default:
		return "", opNone, false
	}
	fn, ok := c.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", opNone, false
	}
	recv := recvTypeName(fn)
	if recv != "Mutex" && recv != "RWMutex" {
		return "", opNone, false
	}
	return c.lockID(sel.X), op, true
}

// lockID names the mutex denoted by expr with a package-wide identity.
func (c *checker) lockID(expr ast.Expr) string {
	switch e := ast.Unparen(expr).(type) {
	case *ast.SelectorExpr:
		if selInfo, ok := c.pass.TypesInfo.Selections[e]; ok {
			recv := selInfo.Recv()
			if ptr, ok := recv.(*types.Pointer); ok {
				recv = ptr.Elem()
			}
			if named, ok := recv.(*types.Named); ok {
				return named.Obj().Name() + "." + e.Sel.Name
			}
			return e.Sel.Name
		}
		if obj, ok := c.pass.TypesInfo.Uses[e.Sel]; ok {
			return obj.Name() // package-qualified variable
		}
		return e.Sel.Name
	case *ast.Ident:
		return e.Name
	default:
		return types.ExprString(expr)
	}
}

func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// blockingCallee reports whether call's statically resolved callee is a
// known-blocking operation from another package. Cross-package comments are
// invisible under the vet unit protocol, so the `//distenc:blocks` contract
// for foreign packages is mirrored here as a curated table; same-package
// `//distenc:blocks` annotations are honored from source in report().
func (c *checker) blockingCallee(call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(c.pass, call)
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	path, name := fn.Pkg().Path(), fn.Name()
	recv := recvTypeName(fn)
	switch {
	case path == "time" && name == "Sleep":
		return "time.Sleep", true
	case path == "sync" && name == "Wait" && (recv == "WaitGroup" || recv == "Cond"):
		return "sync." + recv + ".Wait", true
	case path == "os/exec" && name == "Wait" && recv == "Cmd":
		return "(*exec.Cmd).Wait", true
	case path == "net" && strings.HasPrefix(name, "Dial"):
		return "net." + name, true
	case path == "net" && (name == "Read" || name == "Write" || name == "Accept" || name == "WriteTo"):
		// WriteTo is (*net.Buffers).WriteTo, the writev, and the datagram sends.
		return "net " + recv + "." + name + " I/O", true
	case path == "io" && (name == "Read" || name == "Write" || name == "Copy" || name == "ReadAll" || name == "ReadFull"):
		return "io." + name, true
	case path == "bufio" && (name == "Flush" || name == "Read" || name == "ReadByte" || name == "ReadBytes" || name == "ReadString" || name == "Peek"):
		return "bufio." + recv + "." + name, true
	case strings.HasSuffix(path, "internal/framerpc") && fn.Pkg() != c.pass.Pkg && (name == "Dial" || name == "Call"):
		return "framerpc." + name, true
	case strings.HasSuffix(path, "internal/rdd") && fn.Pkg() != c.pass.Pkg:
		if name == "ReadFrame" || name == "WriteFrame" {
			return "rdd." + name, true
		}
		if recv == "Transport" {
			return "rdd.Transport." + name, true
		}
	case fn.Pkg() == c.pass.Pkg && recv == "Transport":
		// The engine's own Transport interface: every method is a network
		// round trip on the remote backend.
		return "Transport." + name, true
	}
	return "", false
}

// samePkgCallee resolves a statically dispatched call to a function or
// method declared in the package under analysis.
func (c *checker) samePkgCallee(call *ast.CallExpr) (*types.Func, bool) {
	fn := calleeFunc(c.pass, call)
	if fn == nil || fn.Pkg() != c.pass.Pkg {
		return nil, false
	}
	if _, ok := c.decls[fn]; !ok {
		return nil, false // interface method or declaration without a body
	}
	return fn, true
}

func calleeFunc(pass *framework.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.IndexExpr:
		if sel, ok := ast.Unparen(fun.X).(*ast.SelectorExpr); ok {
			id = sel.Sel
		} else if base, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			id = base
		}
	case *ast.IndexListExpr:
		if sel, ok := ast.Unparen(fun.X).(*ast.SelectorExpr); ok {
			id = sel.Sel
		} else if base, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			id = base
		}
	}
	if id == nil {
		return nil
	}
	fn, _ := pass.TypesInfo.Uses[id].(*types.Func)
	return fn
}

// report runs the cross-function phases: blocking propagation through
// same-package calls, then the lock-graph cycle check.
func (c *checker) report() {
	// Fixed point 1: which declared functions may block. Seeds are direct
	// blocking operations and //distenc:blocks annotations.
	mayBlock := map[*types.Func]bool{}
	annotated := map[*types.Func]bool{}
	byObj := map[*types.Func]*funcFacts{}
	for _, f := range c.funcs {
		if f.obj == nil {
			continue
		}
		byObj[f.obj] = f
		if f.blocks {
			mayBlock[f.obj] = true
		}
		if decl := c.decls[f.obj]; decl != nil && c.hasDirective(decl, "blocks") {
			mayBlock[f.obj] = true
			annotated[f.obj] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for obj, f := range byObj {
			if mayBlock[obj] {
				continue
			}
			for _, cs := range f.calls {
				if mayBlock[cs.callee] {
					mayBlock[obj] = true
					changed = true
					break
				}
			}
		}
	}
	// Fixed point 2: the transitive lock-acquisition set of each function.
	acq := map[*types.Func]map[string]bool{}
	for obj, f := range byObj {
		set := map[string]bool{}
		for id := range f.acquires {
			set[id] = true
		}
		acq[obj] = set
	}
	for changed := true; changed; {
		changed = false
		for obj, f := range byObj {
			for _, cs := range f.calls {
				for id := range acq[cs.callee] {
					if !acq[obj][id] {
						acq[obj][id] = true
						changed = true
					}
				}
			}
		}
	}

	// Blocking-while-locked diagnostics: direct events plus lock-held calls
	// to may-block functions.
	for _, f := range c.funcs {
		for _, ev := range f.events {
			if ev.waived {
				continue
			}
			c.pass.Reportf(ev.pos,
				"%s while holding %s; blocking under a lock convoys every contender — release the lock first, or waive a deliberate design with //distenc:lockheld-ok -- reason",
				ev.desc, heldNames(ev.held))
		}
		for _, cs := range f.calls {
			if len(cs.held) == 0 || cs.waived || !mayBlock[cs.callee] {
				continue
			}
			why := "it performs a blocking operation"
			if annotated[cs.callee] {
				why = "it is annotated //distenc:blocks"
			}
			c.pass.Reportf(cs.pos,
				"blocking call to %s while holding %s (%s); blocking under a lock convoys every contender — release the lock first, or waive a deliberate design with //distenc:lockheld-ok -- reason",
				cs.callee.Name(), heldNames(cs.held), why)
		}
	}

	// Lock graph: direct edges plus edges induced by lock-held calls.
	edges := map[[2]string]token.Pos{}
	addEdge := func(from, to string, pos token.Pos) {
		if from == to {
			return
		}
		key := [2]string{from, to}
		if old, ok := edges[key]; !ok || pos < old {
			edges[key] = pos
		}
	}
	for _, f := range c.funcs {
		for _, e := range f.edges {
			addEdge(e.from, e.to, e.pos)
		}
		for _, cs := range f.calls {
			for id := range acq[cs.callee] {
				for _, h := range cs.held {
					addEdge(h.id, id, cs.pos)
				}
			}
		}
	}
	succ := map[string][]string{}
	for key := range edges {
		succ[key[0]] = append(succ[key[0]], key[1])
	}
	var cyclic [][2]string
	for key := range edges {
		if reaches(succ, key[1], key[0]) {
			cyclic = append(cyclic, key)
		}
	}
	sort.Slice(cyclic, func(i, j int) bool { return edges[cyclic[i]] < edges[cyclic[j]] })
	for _, key := range cyclic {
		c.pass.Reportf(edges[key],
			"lock-order cycle: %s is acquired while %s is held here, but elsewhere %s is acquired (possibly transitively) while %s is held — pick one global order",
			key[1], key[0], key[0], key[1])
	}
}

func reaches(succ map[string][]string, from, to string) bool {
	seen := map[string]bool{}
	stack := []string{from}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == to {
			return true
		}
		if seen[n] {
			continue
		}
		seen[n] = true
		stack = append(stack, succ[n]...)
	}
	return false
}

func heldNames(held []heldLock) string {
	names := make([]string, len(held))
	for i, h := range held {
		names[i] = h.id
	}
	return fmt.Sprintf("%s", strings.Join(names, ", "))
}
