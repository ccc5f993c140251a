package analysis

// cfg.go builds intraprocedural control-flow graphs over go/ast function
// bodies, the foundation of the flow-sensitive analyzers (lockorder, errdrop,
// ctxdeadline, chanlife). The construction is purely syntactic — it needs no
// type information — so it also serves the FuzzCFG target, which feeds it
// arbitrary parseable (possibly semantically invalid) sources.
//
// The decomposition follows golang.org/x/tools/go/cfg in spirit: a Block
// holds a run of atomic nodes executed in order, compound statements are
// decomposed into blocks and edges, and their conditions appear as expression
// nodes inside blocks. Atomic nodes are:
//
//   - simple statements: assignments, declarations, expression statements,
//     inc/dec, channel sends, go, defer, return, branch, empty statements;
//   - *ast.RangeStmt, which stands for one "fetch next element" step and
//     heads its own loop block;
//   - condition/tag expressions of if/for/switch and case-clause expressions.
//
// Function literals are never descended into — a closure body runs at an
// unknown time and is a separate CFG of its own (see FuncCFGs).
//
// Statements following a terminator (return, branch, panic, os.Exit and
// friends) land in a fresh unreachable block, so the invariant "every atomic
// statement appears in exactly one block" holds for dead code too.
//
// Defers are ordinary nodes in the block where they are registered; analyzers
// that care about exit-time effects (lockorder treats a deferred Unlock as
// "held to function end") recognize *ast.DeferStmt themselves.

import (
	"fmt"
	"go/ast"
	"strings"
)

// CFG is the control-flow graph of one function body.
type CFG struct {
	// Blocks lists every block; Blocks[0] is Entry. Unreachable blocks
	// (dead code, never-taken label targets) are included.
	Blocks []*Block
	Entry  *Block
	// Exit is the single synthetic exit block (no nodes): the target of
	// every return and of falling off the end of the body. Blocks that end
	// in panic/os.Exit have no successors at all.
	Exit *Block
}

// Block is a maximal straight-line run of atomic nodes.
type Block struct {
	Index int
	Kind  string // "entry", "exit", "if.then", "for.head", ... (debugging)
	Nodes []ast.Node
	Succs []*Block
}

// String renders the block index, kind and successor list for CFG dumps.
func (b *Block) String() string {
	succs := make([]string, len(b.Succs))
	for i, s := range b.Succs {
		succs[i] = fmt.Sprint(s.Index)
	}
	return fmt.Sprintf("b%d(%s)→[%s]", b.Index, b.Kind, strings.Join(succs, " "))
}

// NewCFG builds the control-flow graph of a function body.
func NewCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{cfg: &CFG{}, labels: make(map[string]*Block)}
	b.cfg.Entry = b.newBlock("entry")
	b.cfg.Exit = &Block{Kind: "exit"} // indexed after construction
	b.cur = b.cfg.Entry
	b.stmt(body)
	b.edge(b.cur, b.cfg.Exit)
	b.cfg.Exit.Index = len(b.cfg.Blocks)
	b.cfg.Blocks = append(b.cfg.Blocks, b.cfg.Exit)
	return b.cfg
}

type cfgBuilder struct {
	cfg     *CFG
	cur     *Block
	targets *targets          // innermost enclosing breakable/continuable
	labels  map[string]*Block // goto / labeled-statement targets
	// pendingLabel is the label of the statement about to be built, so a
	// labeled loop registers it as its break/continue label.
	pendingLabel string
	// fallTo is the body block of the next case of the innermost switch.
	fallTo *Block
}

// targets is the stack of break/continue destinations.
type targets struct {
	outer      *targets
	label      string
	breakTo    *Block
	continueTo *Block // nil for switch/select
}

func (b *cfgBuilder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.cfg.Blocks), Kind: kind}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

func (b *cfgBuilder) add(n ast.Node) {
	b.cur.Nodes = append(b.cur.Nodes, n)
}

// labelBlock returns (creating lazily, for forward gotos) the block a label
// names.
func (b *cfgBuilder) labelBlock(name string) *Block {
	if blk, ok := b.labels[name]; ok {
		return blk
	}
	blk := b.newBlock("label." + name)
	b.labels[name] = blk
	return blk
}

// takeLabel consumes the pending label of the statement being built.
func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	if s == nil {
		return
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.pendingLabel = ""
		for _, st := range s.List {
			b.stmt(st)
		}

	case *ast.LabeledStmt:
		lb := b.labelBlock(s.Label.Name)
		b.edge(b.cur, lb)
		b.cur = lb
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)

	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.cur, b.cfg.Exit)
		b.cur = b.newBlock("unreachable.return")

	case *ast.BranchStmt:
		b.add(s)
		b.branch(s)
		b.cur = b.newBlock("unreachable.branch")

	case *ast.ExprStmt:
		b.add(s)
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok && isTerminalCall(call) {
			// panic/os.Exit: control never proceeds; no successor at all.
			b.cur = b.newBlock("unreachable.panic")
		}

	case *ast.IfStmt:
		b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Cond)
		head := b.cur
		done := b.newBlock("if.done")
		then := b.newBlock("if.then")
		b.edge(head, then)
		b.cur = then
		b.stmt(s.Body)
		b.edge(b.cur, done)
		if s.Else != nil {
			els := b.newBlock("if.else")
			b.edge(head, els)
			b.cur = els
			b.stmt(s.Else)
			b.edge(b.cur, done)
		} else {
			b.edge(head, done)
		}
		b.cur = done

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.newBlock("for.head")
		body := b.newBlock("for.body")
		done := b.newBlock("for.done")
		b.edge(b.cur, head)
		b.cur = head
		if s.Cond != nil {
			b.add(s.Cond)
			b.edge(head, done)
		}
		b.edge(head, body)
		cont := head
		var post *Block
		if s.Post != nil {
			post = b.newBlock("for.post")
			cont = post
		}
		b.targets = &targets{outer: b.targets, label: label, breakTo: done, continueTo: cont}
		b.cur = body
		b.stmt(s.Body)
		b.edge(b.cur, cont)
		if post != nil {
			b.cur = post
			b.stmt(s.Post)
			b.edge(b.cur, head)
		}
		b.targets = b.targets.outer
		b.cur = done

	case *ast.RangeStmt:
		label := b.takeLabel()
		head := b.newBlock("range.head")
		body := b.newBlock("range.body")
		done := b.newBlock("range.done")
		b.edge(b.cur, head)
		head.Nodes = append(head.Nodes, s) // the RangeStmt is the iteration step
		b.edge(head, body)
		b.edge(head, done)
		b.targets = &targets{outer: b.targets, label: label, breakTo: done, continueTo: head}
		b.cur = body
		b.stmt(s.Body)
		b.edge(b.cur, head)
		b.targets = b.targets.outer
		b.cur = done

	case *ast.SwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.switchBody(label, s.Body, true)

	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Assign)
		b.switchBody(label, s.Body, false)

	case *ast.SelectStmt:
		label := b.takeLabel()
		head := b.cur
		done := b.newBlock("select.done")
		b.targets = &targets{outer: b.targets, label: label, breakTo: done}
		hasDefault := false
		for _, c := range s.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok {
				continue
			}
			blk := b.newBlock("select.case")
			b.edge(head, blk)
			b.cur = blk
			if cc.Comm != nil {
				b.stmt(cc.Comm)
			} else {
				hasDefault = true
			}
			for _, st := range cc.Body {
				b.stmt(st)
			}
			b.edge(b.cur, done)
		}
		_ = hasDefault // an empty or default-less select simply has its case edges
		b.targets = b.targets.outer
		b.cur = done

	case *ast.DeclStmt, *ast.AssignStmt, *ast.IncDecStmt, *ast.SendStmt,
		*ast.GoStmt, *ast.DeferStmt, *ast.EmptyStmt:
		b.add(s)

	default:
		// BadStmt and anything unanticipated: record and carry on.
		b.add(s)
	}
}

// switchBody decomposes the case clauses of a switch/type-switch. The clause
// expressions are evaluated in the head block; fallthrough (expression
// switches only) jumps to the next case's body.
func (b *cfgBuilder) switchBody(label string, body *ast.BlockStmt, allowFallthrough bool) {
	head := b.cur
	done := b.newBlock("switch.done")
	var clauses []*ast.CaseClause
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok {
			clauses = append(clauses, cc)
		}
	}
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, cc := range clauses {
		for _, e := range cc.List {
			head.Nodes = append(head.Nodes, e)
		}
		if cc.List == nil {
			hasDefault = true
		}
		blocks[i] = b.newBlock("switch.case")
		b.edge(head, blocks[i])
	}
	if !hasDefault {
		b.edge(head, done)
	}
	b.targets = &targets{outer: b.targets, label: label, breakTo: done}
	savedFall := b.fallTo
	for i, cc := range clauses {
		if allowFallthrough && i+1 < len(blocks) {
			b.fallTo = blocks[i+1]
		} else {
			b.fallTo = nil
		}
		b.cur = blocks[i]
		for _, st := range cc.Body {
			b.stmt(st)
		}
		b.edge(b.cur, done)
	}
	b.fallTo = savedFall
	b.targets = b.targets.outer
	b.cur = done
}

// branch wires a break/continue/goto/fallthrough edge. Unresolvable targets
// (invalid sources under fuzzing) terminate the block without an edge.
func (b *cfgBuilder) branch(s *ast.BranchStmt) {
	switch s.Tok.String() {
	case "break":
		for t := b.targets; t != nil; t = t.outer {
			if s.Label == nil || t.label == s.Label.Name {
				b.edge(b.cur, t.breakTo)
				return
			}
		}
	case "continue":
		for t := b.targets; t != nil; t = t.outer {
			if t.continueTo == nil {
				continue // switch/select levels are transparent to continue
			}
			if s.Label == nil || t.label == s.Label.Name {
				b.edge(b.cur, t.continueTo)
				return
			}
		}
	case "goto":
		if s.Label != nil {
			b.edge(b.cur, b.labelBlock(s.Label.Name))
		}
	case "fallthrough":
		b.edge(b.cur, b.fallTo)
	}
}

// isTerminalCall reports, syntactically, whether a call never returns: the
// panic builtin, os.Exit, runtime.Goexit, and the log.Fatal family.
func isTerminalCall(call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		pkg, ok := ast.Unparen(fun.X).(*ast.Ident)
		if !ok {
			return false
		}
		switch pkg.Name + "." + fun.Sel.Name {
		case "os.Exit", "runtime.Goexit", "log.Fatal", "log.Fatalf", "log.Fatalln":
			return true
		}
	}
	return false
}

// FuncCFGs returns the CFG of the function body plus one CFG per function
// literal nested anywhere inside it (closures run at unknown times, so each
// is analyzed as an independent entry point). The map key is the literal.
func FuncCFGs(body *ast.BlockStmt) (main *CFG, lits map[*ast.FuncLit]*CFG) {
	main = NewCFG(body)
	lits = make(map[*ast.FuncLit]*CFG)
	ast.Inspect(body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			lits[fl] = NewCFG(fl.Body)
			// Inspect continues into the literal, finding nested literals too;
			// their CFGs are built from their own bodies when reached.
		}
		return true
	})
	return main, lits
}
