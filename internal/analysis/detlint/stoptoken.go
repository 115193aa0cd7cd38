package detlint

import (
	"go/ast"
	"go/types"

	"columbia/internal/analysis"
	"columbia/internal/analysis/ir"
)

// StopToken enforces the vmpi shutdown contract: when a run fails, the
// engine stops every parked rank and each must observe the stop token and
// unwind — otherwise rank stacks leak across sweep points and the
// fault-injection tests' goroutine-count gates fail. Concretely, every
// `go` statement in internal/vmpi, and every function passed to iter.Pull
// or iter.Pull2 (the rank coroutines), must run a function that is
// stop-aware — its body references the stopToken type, or it calls a
// same-package function that is, transitively. Test files are exempt:
// tests may spawn watchdogs freely. The check runs on the body's
// control-flow graph: only references in blocks reachable from entry
// count, so a token mention sitting in dead code no longer satisfies the
// contract. The path-sensitive upgrade — must the token be observed before
// every blocking operation — is scalelint's chanlive.
var StopToken = &analysis.Analyzer{
	Name: "stoptoken",
	Doc:  "every goroutine or coroutine started in internal/vmpi must observe the rank stop token",
	Run:  runStopToken,
}

func runStopToken(pass *analysis.Pass) error {
	if scopeName(pass.Pkg) != "vmpi" {
		return nil
	}
	tok, _ := pass.Pkg.Scope().Lookup("stopToken").(*types.TypeName)
	aware := stopAwareFuncs(pass, tok)
	for _, f := range pass.Files {
		if isTestFile(pass, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if !funcIsStopAware(pass, n.Call.Fun, tok, aware) {
					pass.Reportf(n.Pos(), "goroutine started without referencing the rank stop token (stopToken); a rank that ignores the token outlives RunError shutdown and leaks across sweep points")
				}
			case *ast.CallExpr:
				fn := calleeFunc(pass.TypesInfo, n)
				if (pkgFunc(fn, "iter", "Pull") || pkgFunc(fn, "iter", "Pull2")) && len(n.Args) == 1 &&
					!funcIsStopAware(pass, n.Args[0], tok, aware) {
					pass.Reportf(n.Pos(), "coroutine started without referencing the rank stop token (stopToken); a coroutine that ignores the token keeps running after stop and leaks across sweep points")
				}
			}
			return true
		})
	}
	return nil
}

// stopAwareFuncs computes, by fixed point, the package functions whose
// bodies reference the stopToken type or call another stop-aware function.
func stopAwareFuncs(pass *analysis.Pass, tok *types.TypeName) map[*types.Func]bool {
	if tok == nil {
		return nil
	}
	type fnDecl struct {
		fn   *types.Func
		body *ast.BlockStmt
	}
	var decls []fnDecl
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				decls = append(decls, fnDecl{fn, fd.Body})
			}
		}
	}
	aware := make(map[*types.Func]bool)
	for _, d := range decls {
		if referencesToken(pass, d.body, tok) {
			aware[d.fn] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, d := range decls {
			if aware[d.fn] {
				continue
			}
			if callsStopAware(pass, d.body, aware) {
				aware[d.fn] = true
				changed = true
			}
		}
	}
	return aware
}

// referencesToken reports whether any identifier in n resolves to tok.
func referencesToken(pass *analysis.Pass, n ast.Node, tok *types.TypeName) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == tok {
			found = true
		}
		return !found
	})
	return found
}

// callsStopAware reports whether n contains a call to a stop-aware function.
func callsStopAware(pass *analysis.Pass, n ast.Node, aware map[*types.Func]bool) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if fn := calleeFunc(pass.TypesInfo, call); fn != nil && aware[fn] {
				found = true
			}
		}
		return !found
	})
	return found
}

// funcIsStopAware reports whether the function expression f — a go
// statement's callee or the function handed to iter.Pull — is stop-aware:
// a function literal that observes stopToken in reachable code, or a named
// same-package function that is stop-aware.
func funcIsStopAware(pass *analysis.Pass, f ast.Expr, tok *types.TypeName, aware map[*types.Func]bool) bool {
	if tok == nil {
		return false // no stop token declared at all: every goroutine is a leak
	}
	if lit, ok := ast.Unparen(f).(*ast.FuncLit); ok {
		return bodyIsStopAware(pass, lit.Body, tok, aware)
	}
	if fn := calleeFunc(pass.TypesInfo, &ast.CallExpr{Fun: f}); fn != nil {
		return aware[fn]
	}
	return false
}

// bodyIsStopAware checks a goroutine body on its control-flow graph: a
// stopToken reference or stop-aware call counts only when its block is
// reachable from entry — a mention after an unconditional return is not an
// observation the running goroutine can ever make.
func bodyIsStopAware(pass *analysis.Pass, body *ast.BlockStmt, tok *types.TypeName, aware map[*types.Func]bool) bool {
	g := ir.New(body)
	reach := g.Reachable()
	for _, b := range g.Blocks {
		if !reach[b] {
			continue
		}
		for _, n := range b.Nodes {
			// Full descent per atomic node: a nested closure that observes
			// the token still runs inside this goroutine's dynamic extent.
			if referencesToken(pass, n, tok) || callsStopAware(pass, n, aware) {
				return true
			}
		}
	}
	return false
}
