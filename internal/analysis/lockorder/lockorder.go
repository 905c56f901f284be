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
//     calls, the rdd frame codec, rdd.Transport calls, framerpc), and calls
//     to same-package functions that (transitively) do any of those.
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
//   - A branch that ends in return/break/continue/goto has its lock-set
//     effects discarded (control never continues past it), so the
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
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"slices"
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

// lockSet is the set of locks held at a program point, by identity.
type lockSet map[string]bool

// edge is one lock-order edge: to was acquired while from was held.
type edge struct {
	from, to string
	pos      token.Pos
}

// site is a directly blocking operation (desc) or a statically resolved
// same-package call (callee), with the locks held there.
type site struct {
	desc   string
	callee *types.Func
	pos    token.Pos
	held   []string
	waived bool
}

// funcFacts aggregates what one function body does with locks.
type funcFacts struct {
	obj      *types.Func // nil for function literals
	acquires lockSet
	blocks   bool // contains a direct blocking operation
	calls    []site
	events   []site
	edges    []edge
}

type checker struct {
	pass  *framework.Pass
	dirs  *directives.Map
	decls map[*types.Func]bool // same-package functions with bodies
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
		decls: map[*types.Func]bool{},
		seen:  map[*ast.FuncLit]bool{},
	}
	var roots []*ast.FuncDecl
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				roots = append(roots, fd)
				if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					c.decls[fn] = true
				}
			}
		}
	}
	for _, fd := range roots {
		fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
		c.analyzeBody(fn, c.dirs.Has(fd, "lockheld-ok"), fd.Body)
	}
	// Function literals reached from the roots (and from each other).
	for len(c.lits) > 0 {
		lit := c.lits[0]
		c.lits = c.lits[1:]
		c.analyzeBody(nil, false, lit.Body)
	}
	c.report()
	return nil, nil
}

// analyzeBody walks one function body as an independent root with an empty
// held set.
func (c *checker) analyzeBody(fn *types.Func, waived bool, body *ast.BlockStmt) {
	f := &funcFacts{obj: fn, acquires: lockSet{}}
	w := &walker{c: c, f: f, funcWaived: waived}
	w.walkStmt(body, lockSet{})
	c.funcs = append(c.funcs, f)
}

func (c *checker) enqueueLit(lit *ast.FuncLit) {
	if !c.seen[lit] {
		c.seen[lit] = true
		c.lits = append(c.lits, lit)
	}
}

// walker tracks the may-held lock set through one function body.
type walker struct {
	c          *checker
	f          *funcFacts
	stack      []ast.Stmt // enclosing statements, for waiver lookup
	funcWaived bool
}

func (w *walker) waived() bool {
	return w.funcWaived || slices.ContainsFunc(w.stack, func(s ast.Stmt) bool { return w.c.dirs.Has(s, "lockheld-ok") })
}

// block records a directly blocking operation.
func (w *walker) block(pos token.Pos, desc string, held lockSet) {
	w.f.blocks = true
	if len(held) > 0 {
		w.f.events = append(w.f.events, site{desc: desc, pos: pos, held: sorted(held), waived: w.waived()})
	}
}

func sorted(held lockSet) []string { return slices.Sorted(maps.Keys(held)) }

// merge folds the fall-through branches of a conditional back into held: a
// lock survives if every branch (and the pre state) still holds it —
// optimistic release — and a lock newly acquired by any branch is held —
// pessimistic acquisition.
func merge(held lockSet, branches []lockSet) {
	if len(branches) == 0 {
		return
	}
	pre := maps.Clone(held)
	clear(held)
	for id := range pre {
		if !slices.ContainsFunc(branches, func(b lockSet) bool { return !b[id] }) {
			held[id] = true
		}
	}
	for _, b := range branches {
		for id := range b {
			if !pre[id] {
				held[id] = true
			}
		}
	}
}

// walkStmt processes stmt, mutating held; it reports true when stmt
// unconditionally leaves the enclosing block (return, branch), so callers
// can discard the branch's lock-set effects.
func (w *walker) walkStmt(stmt ast.Stmt, held lockSet) bool {
	if stmt == nil {
		return false
	}
	w.stack = append(w.stack, stmt)
	defer func() { w.stack = w.stack[:len(w.stack)-1] }()

	switch s := stmt.(type) {
	case *ast.BlockStmt:
		return w.walkList(s.List, held)
	case *ast.IfStmt:
		w.walkStmt(s.Init, held)
		w.walkExpr(s.Cond, held)
		thenHeld, elseHeld := maps.Clone(held), maps.Clone(held)
		thenTerm := w.walkStmt(s.Body, thenHeld)
		elseTerm := w.walkStmt(s.Else, elseHeld)
		switch {
		case thenTerm && elseTerm:
			return true
		case thenTerm:
			clear(held)
			maps.Copy(held, elseHeld)
		case elseTerm:
			clear(held)
			maps.Copy(held, thenHeld)
		default:
			merge(held, []lockSet{thenHeld, elseHeld})
		}
	case *ast.ForStmt:
		w.walkStmt(s.Init, held)
		w.walkExpr(s.Cond, held)
		body := maps.Clone(held)
		if !w.walkStmt(s.Body, body) {
			w.walkStmt(s.Post, body)
			merge(held, []lockSet{body})
		}
	case *ast.RangeStmt:
		w.walkExpr(s.X, held)
		body := maps.Clone(held)
		if !w.walkStmt(s.Body, body) {
			merge(held, []lockSet{body})
		}
	case *ast.SwitchStmt:
		w.walkStmt(s.Init, held)
		w.walkExpr(s.Tag, held)
		w.walkClauses(s.Body, held)
	case *ast.TypeSwitchStmt:
		w.walkStmt(s.Init, held)
		w.walkClauses(s.Body, held)
	case *ast.SelectStmt:
		if !slices.ContainsFunc(s.Body.List, func(cc ast.Stmt) bool { return cc.(*ast.CommClause).Comm == nil }) {
			w.block(s.Pos(), "select without a default case", held)
		}
		w.walkClauses(s.Body, held)
	case *ast.SendStmt:
		w.walkExpr(s.Chan, held)
		w.walkExpr(s.Value, held)
		w.block(s.Pos(), "channel send", held)
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
		w.walkGo(s.Call, held)
	case *ast.GoStmt:
		w.walkGo(s.Call, held)
	case *ast.ExprStmt:
		w.walkExpr(s.X, held)
	case *ast.AssignStmt:
		for _, e := range append(slices.Clip(s.Rhs), s.Lhs...) {
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

func (w *walker) walkList(list []ast.Stmt, held lockSet) bool {
	for _, st := range list {
		if w.walkStmt(st, held) {
			return true
		}
	}
	return false
}

// walkClauses walks the case (or comm) clauses of a switch or select as
// alternative branches. (The branch in which no case runs needs no entry:
// it would hold every lock the others merge against.)
func (w *walker) walkClauses(body *ast.BlockStmt, held lockSet) {
	var branches []lockSet
	for _, cc := range body.List {
		var stmts []ast.Stmt
		switch cl := cc.(type) {
		case *ast.CaseClause:
			for _, e := range cl.List {
				w.walkExpr(e, held)
			}
			stmts = cl.Body
		case *ast.CommClause:
			stmts = cl.Body
		}
		if bh := maps.Clone(held); !w.walkList(stmts, bh) {
			branches = append(branches, bh)
		}
	}
	merge(held, branches)
}

// walkGo handles the call of a go or defer statement: its arguments are
// evaluated now, a literal body runs later as its own root.
func (w *walker) walkGo(call *ast.CallExpr, held lockSet) {
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		w.c.enqueueLit(lit)
	}
	for _, a := range call.Args {
		w.walkExpr(a, held)
	}
}

// walkExpr scans an expression for lock operations, blocking operations and
// same-package calls. Function literals become independent roots.
func (w *walker) walkExpr(expr ast.Expr, held lockSet) {
	if expr == nil {
		return
	}
	ast.Inspect(expr, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.FuncLit:
			w.c.enqueueLit(e)
			return false
		case *ast.UnaryExpr:
			if e.Op == token.ARROW {
				w.block(e.Pos(), "channel receive", held)
			}
		case *ast.CallExpr:
			// Arguments evaluate before the call transfers control.
			w.walkExpr(e.Fun, held)
			for _, a := range e.Args {
				w.walkExpr(a, held)
			}
			w.handleCall(e, held)
			return false
		}
		return true
	})
}

// handleCall classifies one call: mutex operation, known-blocking callee, or
// same-package call to resolve in the cross-function phase.
func (w *walker) handleCall(call *ast.CallExpr, held lockSet) {
	if id, lock, ok := w.c.mutexOp(call); ok {
		if !lock {
			delete(held, id)
		} else if !held[id] {
			for from := range held {
				w.f.edges = append(w.f.edges, edge{from: from, to: id, pos: call.Pos()})
			}
			held[id] = true
			w.f.acquires[id] = true
		}
		return
	}
	fn := framework.Callee(w.c.pass.TypesInfo, call)
	if desc, ok := w.c.blockingCallee(fn); ok {
		w.block(call.Pos(), desc, held)
		return
	}
	if w.c.decls[fn] {
		w.f.calls = append(w.f.calls, site{callee: fn, pos: call.Pos(), held: sorted(held), waived: w.waived()})
	}
}

// mutexOp recognizes sync.Mutex / sync.RWMutex method calls, reporting
// whether they lock or unlock, and resolves the lock's package-wide
// identity: `Type.field` for a mutex struct field, the variable name
// otherwise.
func (c *checker) mutexOp(call *ast.CallExpr) (id string, lock, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "TryLock", "TryRLock":
		lock = true
	case "Unlock", "RUnlock":
	default:
		return "", false, false
	}
	fn, isFn := c.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", false, false
	}
	if recv := framework.RecvName(fn); recv != "Mutex" && recv != "RWMutex" {
		return "", false, false
	}
	return c.lockID(sel.X), lock, true
}

// lockID names the mutex denoted by expr with a package-wide identity.
func (c *checker) lockID(expr ast.Expr) string {
	e, ok := ast.Unparen(expr).(*ast.SelectorExpr)
	if !ok {
		return types.ExprString(expr)
	}
	if sel, ok := c.pass.TypesInfo.Selections[e]; ok {
		recv := sel.Recv()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		if named, ok := recv.(*types.Named); ok {
			return named.Obj().Name() + "." + e.Sel.Name
		}
	}
	return e.Sel.Name // a field of an unnamed struct, or a package-level variable
}

// blockingCallee reports whether fn is a known-blocking operation of the
// standard library or of the repo's network layers.
func (c *checker) blockingCallee(fn *types.Func) (string, bool) {
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	path, name := fn.Pkg().Path(), fn.Name()
	recv := framework.RecvName(fn)
	foreign := fn.Pkg() != c.pass.Pkg
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
	case strings.HasSuffix(path, "internal/framerpc") && foreign && (name == "Dial" || name == "Call"):
		return "framerpc." + name, true
	case strings.HasSuffix(path, "internal/rdd") && foreign && (name == "ReadFrame" || name == "WriteFrame"):
		return "rdd." + name, true
	case strings.HasSuffix(path, "internal/rdd") && recv == "Transport":
		// Every method of the engine's Transport is a network round trip
		// on the remote backend.
		return "rdd.Transport." + name, true
	}
	return "", false
}

// report runs the cross-function phases: blocking propagation through
// same-package calls, then the lock-graph cycle check.
func (c *checker) report() {
	// Which declared functions may block, and the transitive lock
	// acquisitions of each, to a fixed point.
	mayBlock := map[*types.Func]bool{}
	acq := map[*types.Func]lockSet{}
	var declared []*funcFacts
	for _, f := range c.funcs {
		if f.obj != nil {
			declared = append(declared, f)
			mayBlock[f.obj] = f.blocks
			acq[f.obj] = maps.Clone(f.acquires)
		}
	}
	for changed := true; changed; {
		changed = false
		for _, f := range declared {
			for _, cs := range f.calls {
				if mayBlock[cs.callee] && !mayBlock[f.obj] {
					mayBlock[f.obj], changed = true, true
				}
				for id := range acq[cs.callee] {
					if !acq[f.obj][id] {
						acq[f.obj][id], changed = true, true
					}
				}
			}
		}
	}

	// Blocking-while-locked diagnostics, and the lock graph: direct edges
	// plus edges induced by lock-held calls.
	edges := map[[2]string]token.Pos{}
	addEdge := func(from, to string, pos token.Pos) {
		key := [2]string{from, to}
		if old, ok := edges[key]; from != to && (!ok || pos < old) {
			edges[key] = pos
		}
	}
	for _, f := range c.funcs {
		for _, ev := range f.events {
			if !ev.waived {
				c.pass.Reportf(ev.pos,
					"%s while holding %s; blocking under a lock convoys every contender — release the lock first, or waive a deliberate design with //distenc:lockheld-ok -- reason",
					ev.desc, strings.Join(ev.held, ", "))
			}
		}
		for _, e := range f.edges {
			addEdge(e.from, e.to, e.pos)
		}
		for _, cs := range f.calls {
			if len(cs.held) > 0 && !cs.waived && mayBlock[cs.callee] {
				c.pass.Reportf(cs.pos,
					"blocking call to %s while holding %s (it performs a blocking operation); blocking under a lock convoys every contender — release the lock first, or waive a deliberate design with //distenc:lockheld-ok -- reason",
					cs.callee.Name(), strings.Join(cs.held, ", "))
			}
			for id := range acq[cs.callee] {
				for _, h := range cs.held {
					addEdge(h, id, cs.pos)
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
		if !seen[n] {
			seen[n] = true
			stack = append(stack, succ[n]...)
		}
	}
	return false
}
