package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file builds the module-wide static call graph the interprocedural
// passes propagate contracts over (DESIGN.md §15). Nodes are function
// declarations and function literals of the loaded packages; edges are:
//
//   - direct calls resolved through go/types;
//   - interface dispatch, expanded to the implementing set: a call
//     through interface method I.m edges to T.m for every named module
//     type T (or *T) implementing I;
//   - calls through function-typed struct fields, edged to every
//     function value ever stored into that field anywhere in the load —
//     including values that flow through one parameter into a field
//     store (sched.Graph.Add storing its action argument into
//     Node.action is the motivating case);
//   - bare references (method values, callback registrations, function
//     arguments): mentioning a module function without calling it is
//     treated as "may invoke from this context", which over-approximates
//     exactly the way a contract checker must.
//
// //scaffe:coldpath (declaration- or call-site-level, reason mandatory)
// cuts edges out of contract propagation: it marks a deliberate slow
// path — see propagate.go.
//
// Calls inside panic arguments create no edges at all: a panicking path
// has already left the steady state.

// FuncNode is one call-graph node: a declared function/method, or a
// function literal (which analyzes as its own body even though it nests
// lexically inside a declaration).
type FuncNode struct {
	Pkg  *Pkg
	Decl *ast.FuncDecl // nil for literals
	Lit  *ast.FuncLit  // nil for declarations
	Obj  *types.Func   // nil for literals
	Encl *FuncNode     // for literals: the enclosing node
	Name string        // "sched.Graph.runNode", "core.addForward.func"

	// Hot is the direct annotation; ColdReason is a non-empty
	// declaration-level //scaffe:coldpath reason.
	Hot        bool
	ColdReason string

	edges []edge
}

// Body returns the node's function body.
func (n *FuncNode) Body() *ast.BlockStmt {
	if n.Decl != nil {
		return n.Decl.Body
	}
	return n.Lit.Body
}

// Pos returns the node's declaration position.
func (n *FuncNode) Pos() token.Pos {
	if n.Decl != nil {
		return n.Decl.Pos()
	}
	return n.Lit.Pos()
}

// edge is one may-call relation.
type edge struct {
	to *FuncNode
	// cold marks a call site suppressed by //scaffe:coldpath: no
	// obligation propagates.
	cold bool
}

// CallGraph is the module-wide may-call graph.
type CallGraph struct {
	Nodes []*FuncNode // deterministic (package, file, position) order
	byObj map[*types.Func]*FuncNode
	byLit map[*ast.FuncLit]*FuncNode

	// fieldStores maps a function-typed struct field to every function
	// value stored into it anywhere in the load.
	fieldStores map[*types.Var][]*FuncNode
	// paramFields summarizes "function f stores parameter i into field
	// v": arguments at f's call sites flow into v's store set.
	paramFields map[*types.Func][]paramField
	// implCache memoizes interface-method -> implementing-set expansion.
	implCache map[*types.Func][]*FuncNode
	// namedTypes lists every named (non-interface) type of the load,
	// for implementing-set queries.
	namedTypes []*types.Named
}

type paramField struct {
	index int
	field *types.Var
}

// NodesOf returns the graph nodes declared in pkg, in file order.
func (g *CallGraph) NodesOf(pkg *Pkg) []*FuncNode {
	var out []*FuncNode
	for _, n := range g.Nodes {
		if n.Pkg == pkg {
			out = append(out, n)
		}
	}
	return out
}

// buildCallGraph indexes every function of the loaded packages and
// wires the may-call edges.
func buildCallGraph(pkgs []*Pkg) *CallGraph {
	g := &CallGraph{
		byObj:       make(map[*types.Func]*FuncNode),
		byLit:       make(map[*ast.FuncLit]*FuncNode),
		fieldStores: make(map[*types.Var][]*FuncNode),
		paramFields: make(map[*types.Func][]paramField),
		implCache:   make(map[*types.Func][]*FuncNode),
	}
	for _, pkg := range pkgs {
		g.indexPackage(pkg)
	}
	for _, pkg := range pkgs {
		g.collectStores(pkg)
	}
	for _, n := range g.Nodes {
		g.collectArgFlows(n)
	}
	for _, n := range g.Nodes {
		g.buildEdges(n)
	}
	return g
}

// indexPackage creates nodes for every declaration and literal of pkg
// and records the package's named types.
func (g *CallGraph) indexPackage(pkg *Pkg) {
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
			if named, ok := tn.Type().(*types.Named); ok && !types.IsInterface(named) {
				g.namedTypes = append(g.namedTypes, named)
			}
		}
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
			n := &FuncNode{
				Pkg:        pkg,
				Decl:       fd,
				Obj:        obj,
				Name:       declName(pkg, fd),
				Hot:        isHotpath(fd),
				ColdReason: coldpathReason(fd),
			}
			g.Nodes = append(g.Nodes, n)
			if obj != nil {
				g.byObj[obj] = n
			}
			g.indexLiterals(n)
		}
	}
}

// indexLiterals creates a node per function literal nested in n's body,
// named after the nearest enclosing declaration.
func (g *CallGraph) indexLiterals(n *FuncNode) {
	var walk func(encl *FuncNode, body *ast.BlockStmt)
	walk = func(encl *FuncNode, body *ast.BlockStmt) {
		ast.Inspect(body, func(x ast.Node) bool {
			lit, ok := x.(*ast.FuncLit)
			if !ok {
				return true
			}
			ln := &FuncNode{
				Pkg:  encl.Pkg,
				Lit:  lit,
				Encl: encl,
				Name: encl.Name + ".func",
			}
			g.Nodes = append(g.Nodes, ln)
			g.byLit[lit] = ln
			walk(ln, lit.Body)
			return false // the nested walk handles deeper literals
		})
	}
	walk(n, n.Decl.Body)
}

// declName renders "pkg.Func" or "pkg.Recv.Method".
func declName(pkg *Pkg, fd *ast.FuncDecl) string {
	base := pkg.Path
	if i := strings.LastIndex(base, "/"); i >= 0 {
		base = base[i+1:]
	}
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		t := fd.Recv.List[0].Type
		if star, ok := t.(*ast.StarExpr); ok {
			t = star.X
		}
		if id, ok := t.(*ast.Ident); ok {
			return base + "." + id.Name + "." + fd.Name.Name
		}
	}
	return base + "." + fd.Name.Name
}

// funcValueNode resolves an expression used as a function value to its
// graph node: a function literal, or a reference to a module function.
func (g *CallGraph) funcValueNode(pkg *Pkg, expr ast.Expr) *FuncNode {
	switch e := ast.Unparen(expr).(type) {
	case *ast.FuncLit:
		return g.byLit[e]
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[e].(*types.Func); ok {
			return g.byObj[fn]
		}
	case *ast.SelectorExpr:
		if fn, ok := pkg.Info.Uses[e.Sel].(*types.Func); ok {
			return g.byObj[fn]
		}
	}
	return nil
}

// collectStores records, for every assignment and composite literal of
// pkg, function values stored into function-typed struct fields — plus
// the parameter-to-field summaries that let call-site arguments flow
// into those fields.
func (g *CallGraph) collectStores(pkg *Pkg) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			params := paramVars(pkg, fd)
			ast.Inspect(fd.Body, func(x ast.Node) bool {
				switch node := x.(type) {
				case *ast.AssignStmt:
					for i, lhs := range node.Lhs {
						if i >= len(node.Rhs) {
							break
						}
						field := fieldVarOf(pkg, lhs)
						if field == nil || !isFuncType(field.Type()) {
							continue
						}
						g.recordStore(pkg, fd, params, field, node.Rhs[i])
					}
				case *ast.CompositeLit:
					g.collectLitStores(pkg, fd, params, node)
				}
				return true
			})
		}
	}
}

// collectLitStores handles T{f: fn} and positional T{..., fn, ...}.
func (g *CallGraph) collectLitStores(pkg *Pkg, fd *ast.FuncDecl, params map[*types.Var]int, lit *ast.CompositeLit) {
	t := pkg.Info.TypeOf(lit)
	if t == nil {
		return
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i, elt := range lit.Elts {
		var field *types.Var
		var val ast.Expr
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			key, ok := kv.Key.(*ast.Ident)
			if !ok {
				continue
			}
			for j := 0; j < st.NumFields(); j++ {
				if st.Field(j).Name() == key.Name {
					field = st.Field(j)
					break
				}
			}
			val = kv.Value
		} else if i < st.NumFields() {
			field, val = st.Field(i), elt
		}
		if field == nil || !isFuncType(field.Type()) {
			continue
		}
		g.recordStore(pkg, fd, params, field, val)
	}
}

// recordStore files one function-value store: directly into the field's
// store set, or — when the value is a parameter of the enclosing
// function — as a parameter-to-field summary.
func (g *CallGraph) recordStore(pkg *Pkg, fd *ast.FuncDecl, params map[*types.Var]int, field *types.Var, val ast.Expr) {
	if n := g.funcValueNode(pkg, val); n != nil {
		g.fieldStores[field] = append(g.fieldStores[field], n)
		return
	}
	if id, ok := ast.Unparen(val).(*ast.Ident); ok {
		if v, ok := pkg.Info.Uses[id].(*types.Var); ok {
			if idx, isParam := params[v]; isParam {
				if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					g.paramFields[obj] = append(g.paramFields[obj], paramField{index: idx, field: field})
				}
			}
		}
	}
}

// collectArgFlows applies the parameter-to-field summaries at call
// sites: an argument that resolves to a function node and flows into a
// summarized parameter joins that field's store set.
func (g *CallGraph) collectArgFlows(n *FuncNode) {
	pkg := n.Pkg
	inspectBody(n, func(x ast.Node) {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return
		}
		fn := calleeFunc(pkg, call)
		if fn == nil {
			return
		}
		summaries := g.paramFields[fn]
		if len(summaries) == 0 {
			return
		}
		// Methods: the summary indexes declared parameters, matching
		// call.Args directly (receiver is not an argument).
		for _, pf := range summaries {
			if pf.index < len(call.Args) {
				if an := g.funcValueNode(pkg, call.Args[pf.index]); an != nil {
					g.fieldStores[pf.field] = append(g.fieldStores[pf.field], an)
				}
			}
		}
	})
}

// buildEdges wires n's outgoing edges.
func (g *CallGraph) buildEdges(n *FuncNode) {
	pkg := n.Pkg
	cold := coldCallLines(pkg, n)
	addEdge := func(to *FuncNode, site token.Pos) {
		if to == nil || to == n {
			return
		}
		line := pkg.Fset.Position(site).Line
		n.edges = append(n.edges, edge{to: to, cold: cold[line]})
	}
	inspectBody(n, func(x ast.Node) {
		switch node := x.(type) {
		case *ast.CallExpr:
			g.callEdges(n, node, addEdge)
		case *ast.FuncLit:
			addEdge(g.byLit[node], node.Pos())
		case *ast.Ident:
			if fn, ok := pkg.Info.Uses[node].(*types.Func); ok {
				addEdge(g.byObj[fn], node.Pos())
			}
		}
	})
}

// callEdges resolves one call expression to its may-call targets.
// Reference edges for the callee expression come from the Ident walk in
// buildEdges (a direct call's callee identifier resolves to the same
// node, deduplicated by propagation); this handles the dispatch forms
// identifiers cannot express.
func (g *CallGraph) callEdges(n *FuncNode, call *ast.CallExpr, addEdge func(*FuncNode, token.Pos)) {
	pkg := n.Pkg
	if fn := calleeFunc(pkg, call); fn != nil {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
			for _, impl := range g.implementers(fn) {
				addEdge(impl, call.Pos())
			}
			return
		}
		addEdge(g.byObj[fn], call.Pos())
		return
	}
	// Call through a function-typed struct field: every stored value.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if field := fieldVarOf(pkg, sel); field != nil {
			for _, stored := range g.fieldStores[field] {
				addEdge(stored, call.Pos())
			}
		}
	}
}

// implementers expands an interface method to the concrete module
// methods that may answer it.
func (g *CallGraph) implementers(fn *types.Func) []*FuncNode {
	if impls, ok := g.implCache[fn]; ok {
		return impls
	}
	iface, ok := fn.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
	var impls []*FuncNode
	if ok {
		for _, named := range g.namedTypes {
			if !types.Implements(named, iface) && !types.Implements(types.NewPointer(named), iface) {
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, fn.Pkg(), fn.Name())
			if m, ok := obj.(*types.Func); ok {
				if node := g.byObj[m]; node != nil {
					impls = append(impls, node)
				}
			}
		}
	}
	g.implCache[fn] = impls
	return impls
}

// inspectBody walks n's own body, skipping nested function literals
// (they are their own nodes) and panic arguments (cold by definition).
func inspectBody(n *FuncNode, visit func(ast.Node)) {
	var walk func(ast.Node)
	walk = func(root ast.Node) {
		ast.Inspect(root, func(x ast.Node) bool {
			if x == nil {
				return false
			}
			if lit, ok := x.(*ast.FuncLit); ok && lit != n.Lit {
				visit(x) // the literal itself is visible (reference edge)
				return false
			}
			if call, ok := x.(*ast.CallExpr); ok {
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
					if b, ok := n.Pkg.Info.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
						return false
					}
				}
			}
			visit(x)
			return true
		})
	}
	walk(n.Body())
}

// --- small type helpers ----------------------------------------------------

// paramVars maps fd's parameter objects to their declared index.
func paramVars(pkg *Pkg, fd *ast.FuncDecl) map[*types.Var]int {
	m := make(map[*types.Var]int)
	i := 0
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				if v, ok := pkg.Info.Defs[name].(*types.Var); ok {
					m[v] = i
				}
				i++
			}
			if len(field.Names) == 0 {
				i++
			}
		}
	}
	return m
}

// fieldVarOf resolves expr to the struct field it selects, or nil.
func fieldVarOf(pkg *Pkg, expr ast.Expr) *types.Var {
	sel, ok := ast.Unparen(expr).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if s, ok := pkg.Info.Selections[sel]; ok && s.Kind() == types.FieldVal {
		if v, ok := s.Obj().(*types.Var); ok {
			return v
		}
	}
	return nil
}

func isFuncType(t types.Type) bool {
	_, ok := t.Underlying().(*types.Signature)
	return ok
}
