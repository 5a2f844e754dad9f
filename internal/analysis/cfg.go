// Control-flow graphs for the lbvet dataflow analyzers. The builder
// turns one function body (go/ast, no types needed) into basic blocks
// connected by edges, with loop back edges marked so path-sensitive
// analyses (drawdiscipline's per-path draw counts, leakcheck's
// join-on-every-exit check) can treat the graph as a DAG of "one trip
// through every loop".
//
// The construction is deliberately syntactic: panics and the
// terminating stdlib calls (os.Exit, log.Fatal*, runtime.Goexit) end a
// path at the dedicated Panics sink rather than the normal Exit, so a
// guard clause that panics never counts as a divergent branch.
// Function literals are opaque expressions — their bodies are separate
// CFGs built by the analyzer that cares — and deferred statements are
// recorded on the graph (they run at every exit) as well as appearing
// in their syntactic block (their arguments are evaluated in line).

package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// Block is one basic block: a maximal run of nodes with a single entry
// and ordered successor edges. Nodes holds statements and the guard
// expressions (if/for/switch conditions, range and select subjects)
// evaluated in the block, in execution order.
type Block struct {
	Index int
	Kind  string // "entry", "exit", "panic", "if.then", "for.head", ...
	Nodes []ast.Node
	Succs []Edge
}

// Edge is one control-flow successor; Back marks loop back edges
// (body/post back to the loop head, and lexically backward gotos).
type Edge struct {
	To   *Block
	Back bool
}

// CFG is the control-flow graph of one function body.
type CFG struct {
	Blocks []*Block
	Entry  *Block
	Exit   *Block // normal exits: returns and falling off the body
	Panics *Block // abnormal exits: panic, os.Exit, log.Fatal*, Goexit
	// Defers collects the function's defer statements; they execute on
	// every exit path, so all-exit-path analyses consult them directly.
	Defers []*ast.DeferStmt
}

// String renders the graph compactly for tests and debugging:
// "0:entry ->1; 1:for.head ->2 =>3; ..." where "=>" marks back edges.
func (g *CFG) String() string {
	var b strings.Builder
	for _, blk := range g.Blocks {
		fmt.Fprintf(&b, "%d:%s", blk.Index, blk.Kind)
		for _, e := range blk.Succs {
			arrow := " ->"
			if e.Back {
				arrow = " =>"
			}
			fmt.Fprintf(&b, "%s%d", arrow, e.To.Index)
		}
		b.WriteString("; ")
	}
	return strings.TrimSuffix(b.String(), "; ")
}

// BuildCFG constructs the control-flow graph of a function body. It
// accepts the *ast.BlockStmt of a FuncDecl or FuncLit.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{g: &CFG{}}
	b.g.Entry = b.newBlock("entry")
	b.g.Exit = b.newBlock("exit")
	b.g.Panics = b.newBlock("panic")
	b.cur = b.g.Entry
	b.labels = map[string]*labelInfo{}
	b.stmtList(body.List)
	// Falling off the end of the body is a normal exit.
	b.edgeTo(b.g.Exit, false)
	b.resolveGotos()
	return b.g
}

// labelInfo tracks one label: the block a goto jumps to, plus the
// break/continue targets when the label names a loop or switch.
type labelInfo struct {
	target   *Block // goto destination (nil until the label is reached)
	breakTo  *Block
	contTo   *Block
	resolved bool
}

type pendingGoto struct {
	from  *Block
	label string
}

// loopFrame tracks the innermost enclosing breakable/continuable
// construct for unlabeled break/continue/fallthrough.
type loopFrame struct {
	breakTo *Block
	contTo  *Block // nil for switch/select frames
	// fallNext is the body block of the next case clause, for
	// fallthrough inside switch statements.
	fallNext *Block
}

type cfgBuilder struct {
	g      *CFG
	cur    *Block // nil-successor convention: unreachable code gets a fresh orphan block
	frames []loopFrame
	labels map[string]*labelInfo
	gotos  []pendingGoto
	// pendingLabel carries a label to attach to the next loop/switch
	// statement, so labeled break/continue resolve.
	pendingLabel string
}

func (b *cfgBuilder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.g.Blocks), Kind: kind}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

// edgeTo links the current block to dst and is a no-op when the current
// position is unreachable.
func (b *cfgBuilder) edgeTo(dst *Block, back bool) {
	if b.cur == nil {
		return
	}
	b.cur.Succs = append(b.cur.Succs, Edge{To: dst, Back: back})
}

// add appends a node to the current block, reviving unreachable code in
// an orphan block so its nodes still exist for position lookups.
func (b *cfgBuilder) add(n ast.Node) {
	if n == nil {
		return
	}
	if b.cur == nil {
		b.cur = b.newBlock("unreachable")
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// terminates reports whether a call expression never returns: panic and
// the well-known terminating stdlib calls. Purely syntactic.
func terminates(call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		if x, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			switch x.Name + "." + fun.Sel.Name {
			case "os.Exit", "runtime.Goexit", "log.Fatal", "log.Fatalf", "log.Fatalln":
				return true
			}
		}
	}
	return false
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		li := b.labels[s.Label.Name]
		if li == nil {
			li = &labelInfo{}
			b.labels[s.Label.Name] = li
		}
		// The label's target block: start a fresh block so a goto can
		// land exactly here.
		target := b.newBlock("label." + s.Label.Name)
		b.edgeTo(target, false)
		b.cur = target
		li.target = target
		li.resolved = true
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.IfStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Cond)
		guard := b.cur
		done := b.newBlock("if.done")
		then := b.newBlock("if.then")
		if guard != nil {
			guard.Succs = append(guard.Succs, Edge{To: then})
		}
		b.cur = then
		b.stmt(s.Body)
		b.edgeTo(done, false)
		if s.Else != nil {
			els := b.newBlock("if.else")
			if guard != nil {
				guard.Succs = append(guard.Succs, Edge{To: els})
			}
			b.cur = els
			b.stmt(s.Else)
			b.edgeTo(done, false)
		} else if guard != nil {
			guard.Succs = append(guard.Succs, Edge{To: done})
		}
		b.cur = done

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		head := b.newBlock("for.head")
		b.edgeTo(head, false)
		done := b.newBlock("for.done")
		post := head
		if s.Post != nil {
			post = b.newBlock("for.post")
			post.Nodes = append(post.Nodes, s.Post)
			post.Succs = append(post.Succs, Edge{To: head, Back: true})
		}
		b.cur = head
		if s.Cond != nil {
			b.add(s.Cond)
		}
		body := b.newBlock("for.body")
		head.Succs = append(head.Succs, Edge{To: body})
		if s.Cond != nil {
			head.Succs = append(head.Succs, Edge{To: done})
		}
		b.pushFrame(label, loopFrame{breakTo: done, contTo: post})
		b.cur = body
		b.stmt(s.Body)
		if post != head {
			b.edgeTo(post, false)
		} else {
			b.edgeTo(head, true)
		}
		b.popFrame()
		b.cur = done

	case *ast.RangeStmt:
		label := b.takeLabel()
		head := b.newBlock("range.head")
		b.edgeTo(head, false)
		b.cur = head
		b.add(s.X)
		done := b.newBlock("range.done")
		body := b.newBlock("range.body")
		head.Succs = append(head.Succs, Edge{To: body}, Edge{To: done})
		b.pushFrame(label, loopFrame{breakTo: done, contTo: head})
		b.cur = body
		b.stmt(s.Body)
		b.edgeTo(head, true)
		b.popFrame()
		b.cur = done

	case *ast.SwitchStmt:
		b.caseSwitch(s.Init, s.Tag, s.Body, "switch")

	case *ast.TypeSwitchStmt:
		// The init and assign/expr are evaluated once before branching;
		// record them in the guard block like a switch tag.
		if s.Init != nil {
			b.add(s.Init)
		}
		if s.Assign != nil {
			b.add(s.Assign)
		}
		b.caseSwitch(nil, nil, s.Body, "typeswitch")

	case *ast.SelectStmt:
		label := b.takeLabel()
		guard := b.cur
		done := b.newBlock("select.done")
		b.pushFrame(label, loopFrame{breakTo: done})
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			blk := b.newBlock("select.case")
			if cc.Comm != nil {
				blk.Nodes = append(blk.Nodes, cc.Comm)
			}
			if guard != nil {
				guard.Succs = append(guard.Succs, Edge{To: blk})
			}
			b.cur = blk
			b.stmtList(cc.Body)
			b.edgeTo(done, false)
		}
		b.popFrame()
		// A select with no cases blocks forever; treat as unreachable
		// fallthrough.
		if len(s.Body.List) == 0 && guard != nil {
			guard.Succs = append(guard.Succs, Edge{To: done})
		}
		b.cur = done

	case *ast.ReturnStmt:
		b.add(s)
		b.edgeTo(b.g.Exit, false)
		b.cur = nil

	case *ast.BranchStmt:
		b.add(s)
		switch s.Tok {
		case token.BREAK:
			if t := b.branchTarget(s.Label, true); t != nil {
				b.edgeTo(t, false)
			}
			b.cur = nil
		case token.CONTINUE:
			if t := b.branchTarget(s.Label, false); t != nil {
				// A continue to the loop head/post is a back edge.
				b.edgeTo(t, true)
			}
			b.cur = nil
		case token.GOTO:
			if s.Label != nil {
				b.gotos = append(b.gotos, pendingGoto{from: b.cur, label: s.Label.Name})
			}
			b.cur = nil
		case token.FALLTHROUGH:
			for i := len(b.frames) - 1; i >= 0; i-- {
				if b.frames[i].fallNext != nil {
					b.edgeTo(b.frames[i].fallNext, false)
					break
				}
			}
			b.cur = nil
		}

	case *ast.DeferStmt:
		b.g.Defers = append(b.g.Defers, s)
		b.add(s) // argument evaluation happens in line

	case *ast.ExprStmt:
		b.add(s)
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok && terminates(call) {
			b.edgeTo(b.g.Panics, false)
			b.cur = nil
		}

	default:
		// Assignments, declarations, go statements, sends, inc/dec,
		// empty statements: straight-line nodes.
		b.add(s)
	}
}

// caseSwitch builds expression and type switches: a guard block fans
// out to one block per case clause, all converging on done; a missing
// default adds a guard→done edge.
func (b *cfgBuilder) caseSwitch(init ast.Stmt, tag ast.Expr, body *ast.BlockStmt, kind string) {
	label := b.takeLabel()
	if init != nil {
		b.add(init)
	}
	if tag != nil {
		b.add(tag)
	}
	guard := b.cur
	done := b.newBlock(kind + ".done")

	// Pre-create the clause blocks so fallthrough can reference the
	// next clause.
	clauses := make([]*Block, 0, len(body.List))
	hasDefault := false
	for _, c := range body.List {
		cc := c.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		clauses = append(clauses, b.newBlock(kind+".case"))
	}
	for i, c := range body.List {
		cc := c.(*ast.CaseClause)
		blk := clauses[i]
		for _, e := range cc.List {
			blk.Nodes = append(blk.Nodes, e)
		}
		if guard != nil {
			guard.Succs = append(guard.Succs, Edge{To: blk})
		}
		var fallNext *Block
		if i+1 < len(clauses) {
			fallNext = clauses[i+1]
		}
		b.pushFrame(label, loopFrame{breakTo: done, fallNext: fallNext})
		b.cur = blk
		b.stmtList(cc.Body)
		b.edgeTo(done, false)
		b.popFrame()
	}
	if !hasDefault && guard != nil {
		guard.Succs = append(guard.Succs, Edge{To: done})
	}
	b.cur = done
}

// takeLabel consumes the pending label (set by an enclosing
// LabeledStmt) for attachment to the loop/switch being built.
func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *cfgBuilder) pushFrame(label string, f loopFrame) {
	b.frames = append(b.frames, f)
	if label != "" {
		li := b.labels[label]
		if li == nil {
			li = &labelInfo{}
			b.labels[label] = li
		}
		li.breakTo = f.breakTo
		li.contTo = f.contTo
	}
}

func (b *cfgBuilder) popFrame() { b.frames = b.frames[:len(b.frames)-1] }

// branchTarget resolves break/continue targets, labeled or not.
func (b *cfgBuilder) branchTarget(label *ast.Ident, isBreak bool) *Block {
	if label != nil {
		li := b.labels[label.Name]
		if li == nil {
			return nil
		}
		if isBreak {
			return li.breakTo
		}
		return li.contTo
	}
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := b.frames[i]
		if isBreak {
			return f.breakTo
		}
		if f.contTo != nil {
			return f.contTo
		}
	}
	return nil
}

// resolveGotos wires pending goto edges once all labels are known.
// A goto to a lexically earlier label is marked as a back edge.
func (b *cfgBuilder) resolveGotos() {
	for _, g := range b.gotos {
		li := b.labels[g.label]
		if li == nil || li.target == nil || g.from == nil {
			continue
		}
		g.from.Succs = append(g.from.Succs, Edge{To: li.target, Back: li.target.Index < g.from.Index})
	}
}

// Forward runs a forward dataflow analysis to fixpoint. States are
// indexed by block; entry starts at init, every other block at bottom.
// transfer maps a block's input state to its output state; join merges
// an incoming output into a block's input and reports whether the input
// changed. follow filters edges — pass DAGEdges to cut loop back edges
// (the "one trip per loop" view).
func Forward[S any](g *CFG, bottom, init S, transfer func(*Block, S) S, join func(into S, from S) (S, bool), follow func(Edge) bool) []S {
	in := make([]S, len(g.Blocks))
	seen := make([]bool, len(g.Blocks))
	for i := range in {
		in[i] = bottom
	}
	in[g.Entry.Index] = init
	seen[g.Entry.Index] = true
	work := []*Block{g.Entry}
	for len(work) > 0 {
		blk := work[len(work)-1]
		work = work[:len(work)-1]
		out := transfer(blk, in[blk.Index])
		for _, e := range blk.Succs {
			if !follow(e) {
				continue
			}
			merged, changed := join(in[e.To.Index], out)
			if changed || !seen[e.To.Index] {
				in[e.To.Index] = merged
				seen[e.To.Index] = true
				work = append(work, e.To)
			}
		}
	}
	return in
}

// DAGEdges follows every edge but the loop back edges.
func DAGEdges(e Edge) bool { return !e.Back }

// EveryPathTo computes, for each block, whether every path from it to a
// normal exit satisfies pred on some block along the way (the block
// itself included). Paths ending at the panic sink are ignored — a
// panicking path needs no join. Loops are treated optimistically: a
// path that never leaves a loop never reaches the exit and so does not
// count against the property (greatest-fixpoint semantics).
func EveryPathTo(g *CFG, pred func(*Block) bool) []bool {
	// must[i]: every normal-exit path from block i passes a pred block.
	must := make([]bool, len(g.Blocks))
	for i := range must {
		must[i] = true // optimistic start for the greatest fixpoint
	}
	must[g.Exit.Index] = pred(g.Exit)
	changed := true
	for changed {
		changed = false
		for _, blk := range g.Blocks {
			if blk == g.Exit || pred(blk) {
				continue
			}
			v := true
			for _, e := range blk.Succs {
				if e.To == g.Panics {
					continue
				}
				if !must[e.To.Index] {
					v = false
					break
				}
			}
			if v != must[blk.Index] {
				must[blk.Index] = v
				changed = true
			}
		}
	}
	return must
}
