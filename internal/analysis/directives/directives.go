// Package directives parses the repo's `//distenc:` comment directives, the
// audited escape hatches of the lint suite:
//
//	//distenc:hotpath                 — marks a function (or the func literals
//	                                    in the next statement) as an
//	                                    allocation-free hot path for hotalloc
//	//distenc:coldpath -- why         — excludes one loop or statement inside a
//	                                    hot path from hotalloc (setup/emit code
//	                                    that does not run per non-zero)
//	//distenc:capture-ok v1 v2 -- why — waives named read-only captures in the
//	                                    task closures of a statement for
//	                                    rddcapture
//	//distenc:floatcmp-ok -- why      — approves exact float comparison in a
//	                                    function for floatcmp
//	//distenc:lockheld-ok -- why      — waives one statement (or a whole
//	                                    function) that deliberately blocks
//	                                    while holding a mutex, for lockorder
//	//distenc:goroutine-owned-by m -- why
//	                                  — records the lifetime mechanism that
//	                                    joins or bounds a spawned goroutine
//	                                    for goroutineowner (e.g. channel-drain,
//	                                    conn-close, process-lifetime)
//
// A directive binds to the node that starts on its own line, or to the node
// starting on the first non-comment line below it (so it can sit on the
// statement it governs or in the comment block above, including a FuncDecl's
// doc comment).
package directives

import (
	"go/ast"
	"go/token"
	"strings"
)

// Directive is one parsed `//distenc:name args... [-- reason]` comment.
type Directive struct {
	Name   string
	Args   []string // whitespace-separated args before any "--" separator
	Reason string   // free text after "--", if present
}

// Map indexes a file set's directives by file and line.
type Map struct {
	fset *token.FileSet
	// byLine maps filename -> line -> directives on that line.
	byLine map[string]map[int][]Directive
	// commentLines marks filename -> lines fully occupied by comments, used
	// to let a directive bind across its surrounding comment block.
	commentLines map[string]map[int]bool
}

// Scan extracts every distenc directive from the files' comments.
func Scan(fset *token.FileSet, files []*ast.File) *Map {
	m := &Map{
		fset:         fset,
		byLine:       make(map[string]map[int][]Directive),
		commentLines: make(map[string]map[int]bool),
	}
	for _, f := range files {
		name := fset.Position(f.Pos()).Filename
		lines, comments := make(map[int][]Directive), make(map[int]bool)
		m.byLine[name], m.commentLines[name] = lines, comments
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				start, end := fset.Position(c.Pos()).Line, fset.Position(c.End()).Line
				for l := start; l <= end; l++ {
					comments[l] = true
				}
				if body, ok := strings.CutPrefix(c.Text, "//distenc:"); ok {
					var d Directive
					body, d.Reason, _ = strings.Cut(body, "--")
					d.Reason = strings.TrimSpace(d.Reason)
					if fields := strings.Fields(body); len(fields) > 0 {
						d.Name, d.Args = fields[0], fields[1:]
						lines[start] = append(lines[start], d)
					}
				}
			}
		}
	}
	return m
}

// ForNode returns the directives attached to node: those on the line node
// starts on, plus those in the contiguous comment block directly above it.
func (m *Map) ForNode(node ast.Node) []Directive {
	start := m.fset.Position(node.Pos())
	lines := m.byLine[start.Filename]
	out := append([]Directive(nil), lines[start.Line]...)
	for l := start.Line - 1; m.commentLines[start.Filename][l]; l-- {
		out = append(out, lines[l]...)
	}
	return out
}

// Has reports whether node carries a directive with the given name.
func (m *Map) Has(node ast.Node, name string) bool {
	for _, d := range m.ForNode(node) {
		if d.Name == name {
			return true
		}
	}
	return false
}

// CaptureWaivers returns the variable names waived by capture-ok directives
// attached to node.
func (m *Map) CaptureWaivers(node ast.Node) map[string]bool {
	out := map[string]bool{}
	for _, d := range m.ForNode(node) {
		if d.Name == "capture-ok" {
			for _, a := range d.Args {
				out[strings.TrimSuffix(a, ",")] = true
			}
		}
	}
	return out
}
