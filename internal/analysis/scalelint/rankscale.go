package scalelint

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"sync"

	"columbia/internal/analysis"
	"columbia/internal/analysis/flow"
	"columbia/internal/analysis/ir"
	"columbia/internal/analysis/perflint"
)

// RankScale enforces the O(ranks) allocation budget in the engine
// packages. A make whose size is tainted by a rank-count source, or an
// append/go statement inside a loop whose trip count is, allocates or
// spawns proportionally to the rank count — the exact shape that turns
// into a scaling cliff at the >=100k ranks the roadmap targets. A call to
// iter.Pull or iter.Pull2 in such a loop starts one coroutine — a stack
// plus its bookkeeping — per rank, and counts like a go statement. Every such
// site must either live in a function annotated //perflint:pooled <reason>
// (the arena and pool implementations, which exist to own rank-sized
// allocations) or fit the committed budget in rankscale_budget.json,
// regenerated by `go run ./cmd/perflint -write`.
var RankScale = &analysis.Analyzer{
	Name: "rankscale",
	Doc:  "budget O(ranks) allocation, goroutine and coroutine sites in the engine packages",
	Run: func(pass *analysis.Pass) error {
		budget, err := EmbeddedRankBudget()
		if err != nil {
			return err
		}
		return runRankScale(pass, budget)
	},
}

// newRankScale builds a rankscale instance bound to an explicit budget,
// for fixture tests that must not depend on the committed one.
func newRankScale(budget *RankBudget) *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: RankScale.Name,
		Doc:  RankScale.Doc,
		Run: func(pass *analysis.Pass) error {
			return runRankScale(pass, budget)
		},
	}
}

// RankBudget is the committed rank-scaled site budget: per function key,
// the accepted number of O(ranks) sites.
type RankBudget struct {
	Functions map[string]int `json:"functions"`
}

//go:embed rankscale_budget.json
var rankBudgetJSON []byte

var (
	rankBudgetOnce sync.Once
	rankBudgetVal  *RankBudget
	rankBudgetErr  error
)

// EmbeddedRankBudget parses the committed budget compiled into the
// analyzer, once.
func EmbeddedRankBudget() (*RankBudget, error) {
	rankBudgetOnce.Do(func() {
		rankBudgetVal, rankBudgetErr = ParseRankBudget(rankBudgetJSON)
	})
	return rankBudgetVal, rankBudgetErr
}

// ParseRankBudget decodes a budget file, rejecting unknown fields so a
// typo in a hand-edited budget fails loudly.
func ParseRankBudget(data []byte) (*RankBudget, error) {
	var b RankBudget
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("rankscale budget: %w", err)
	}
	if b.Functions == nil {
		b.Functions = map[string]int{}
	}
	return &b, nil
}

// A RankSite is one rank-scaled allocation or spawn site.
type RankSite struct {
	Key  string // function budget key, perflint.FuncKey form
	Pos  token.Pos
	What string // "make sized by the rank count", ...
}

func runRankScale(pass *analysis.Pass, budget *RankBudget) error {
	if !RankScoped(pass.Pkg.Path()) {
		return nil
	}
	sites := RankSites(pkgPathKey(pass.Pkg.Path()), pass.Fset, pass.Files, pass.TypesInfo)
	perKey := make(map[string][]RankSite)
	for _, s := range sites {
		perKey[s.Key] = append(perKey[s.Key], s)
	}
	keys := make([]string, 0, len(perKey))
	for k := range perKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		ks := perKey[k]
		allowed := budget.Functions[k]
		if len(ks) <= allowed {
			continue
		}
		for i, s := range ks[allowed:] {
			pass.Reportf(s.Pos,
				"%s: %s (site %d of %d, budget %d) — every unpooled O(ranks) site is a memory or spawn cliff at extreme rank counts; move it behind a //perflint:pooled arena, regenerate the budget with `go run ./cmd/perflint -write`, or justify with //detlint:allow rankscale <reason>",
				k, s.What, allowed+i+1, len(ks), allowed)
		}
	}
	return nil
}

// RankSites returns every rank-scaled site in the files, in position
// order: a make sized by a rank-tainted expression anywhere, and an
// append, go statement or iter.Pull call inside a CFG loop whose trip
// count is rank-tainted. Functions annotated //perflint:pooled are exempt, and
// test files never contribute sites. Exported for cmd/perflint, which
// regenerates the budget from the same walk.
func RankSites(pkgPath string, fset *token.FileSet, files []*ast.File, info *types.Info) []RankSite {
	var sites []RankSite
	for _, f := range files {
		if isTestFile(fset, f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if _, pooled := perflint.Marker(fd.Doc, "pooled"); pooled {
				continue
			}
			key := perflint.FuncKey(pkgPath, fd)
			tainted, seed := rankTaint(info, fd.Body)
			dep := func(e ast.Expr) bool { return flow.Depends(info, tainted, seed, e) }
			for _, body := range funcBodies(fd) {
				sites = append(sites, bodySites(key, body, info, dep)...)
			}
		}
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i].Pos < sites[j].Pos })
	return sites
}

// funcBodies lists the declaration's own body plus every nested function
// literal body, each of which gets its own control-flow graph.
func funcBodies(fd *ast.FuncDecl) []*ast.BlockStmt {
	bodies := []*ast.BlockStmt{fd.Body}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			bodies = append(bodies, fl.Body)
		}
		return true
	})
	return bodies
}

// bodySites collects one body's rank-scaled sites off its CFG.
func bodySites(key string, body *ast.BlockStmt, info *types.Info, dep func(ast.Expr) bool) []RankSite {
	g := ir.New(body)
	reach := g.Reachable()
	inLoop := rankLoopBlocks(g, dep)
	var sites []RankSite
	add := func(pos token.Pos, what string) {
		sites = append(sites, RankSite{Key: key, Pos: pos, What: what})
	}
	for _, b := range g.Blocks {
		if !reach[b] || b == g.Exit {
			continue // dead sites never run; exit nodes replay defers already seen
		}
		for _, n := range b.Nodes {
			if gs, ok := n.(*ast.GoStmt); ok && inLoop[b] {
				add(gs.Pos(), "goroutine started once per rank")
			}
			ir.Walk(n, func(sub ast.Node) bool {
				call, ok := sub.(*ast.CallExpr)
				if !ok {
					return true
				}
				if inLoop[b] && isPull(info, call) {
					add(call.Pos(), "coroutine started once per rank")
				}
				switch builtinName(info, call) {
				case "make":
					for _, a := range call.Args[1:] {
						if dep(a) {
							add(call.Pos(), "make sized by the rank count")
							break
						}
					}
				case "append":
					if inLoop[b] {
						add(call.Pos(), "append growing once per rank")
					}
				}
				return true
			})
		}
	}
	return sites
}

// rankLoopBlocks returns the blocks executing under a rank-tainted trip
// count: for every for/range branch head whose controlling expression is
// rank-dependent, the blocks on a cycle through that head (the loop body,
// post and nested regions — reachable from the head and reaching back).
func rankLoopBlocks(g *ir.Graph, dep func(ast.Expr) bool) map[*ir.Block]bool {
	inLoop := make(map[*ir.Block]bool)
	for _, br := range g.Branches {
		if br.Kind != "for" && br.Kind != "range" {
			continue
		}
		ranked := false
		for _, c := range br.Conds {
			if dep(c) {
				ranked = true
			}
		}
		if !ranked {
			continue
		}
		fromHead := ir.ReachableFrom(br.Block)
		for b := range fromHead {
			if ir.ReachableFrom(b)[br.Block] {
				inLoop[b] = true
			}
		}
	}
	return inLoop
}

// rankCountNames are the identifiers and field selectors that seed the
// rank taint: the canonical spellings of "how many ranks" across the
// engine packages (vmpi's Config.Procs, dist's nranks, ...).
var rankCountNames = map[string]bool{
	"Procs":    true,
	"Ranks":    true,
	"NRanks":   true,
	"nranks":   true,
	"nRanks":   true,
	"ranks":    true,
	"numRanks": true,
}

// rankTaint computes the body's rank-tainted objects: the fixed point of
// the flow taint seeded by rank-count names, augmented with loop induction
// variables of rank-bounded loops (in `for i := 0; i < nranks; i++` the
// variable i is itself rank-scaled) until no loop adds a new seed.
func rankTaint(info *types.Info, body *ast.BlockStmt) (map[types.Object]bool, flow.Seed) {
	extra := make(map[types.Object]bool)
	seed := func(e ast.Expr) bool {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if rankCountNames[x.Name] {
				return true
			}
			obj := info.Uses[x]
			if obj == nil {
				obj = info.Defs[x]
			}
			return obj != nil && extra[obj]
		case *ast.SelectorExpr:
			return rankCountNames[x.Sel.Name]
		}
		return false
	}
	for {
		tainted := flow.Taint(info, body, seed)
		dep := func(e ast.Expr) bool { return flow.Depends(info, tainted, seed, e) }
		changed := false
		induct := func(id *ast.Ident) {
			obj := info.Defs[id]
			if obj == nil {
				obj = info.Uses[id]
			}
			if obj != nil && !extra[obj] && !tainted[obj] {
				extra[obj] = true
				changed = true
			}
		}
		ast.Inspect(body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.ForStmt:
				if x.Cond == nil || !dep(x.Cond) {
					return true
				}
				if as, ok := x.Init.(*ast.AssignStmt); ok {
					for _, l := range as.Lhs {
						if id, ok := ast.Unparen(l).(*ast.Ident); ok && id.Name != "_" {
							induct(id)
						}
					}
				}
			case *ast.RangeStmt:
				if !dep(x.X) {
					return true
				}
				if id, ok := x.Key.(*ast.Ident); ok && id.Name != "_" {
					induct(id)
				}
				if id, ok := x.Value.(*ast.Ident); ok && id.Name != "_" {
					induct(id)
				}
			}
			return true
		})
		if !changed {
			return tainted, seed
		}
	}
}

// isPull reports whether call starts a coroutine: iter.Pull or iter.Pull2.
func isPull(info *types.Info, call *ast.CallExpr) bool {
	fn := flow.Callee(info, call)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "iter" &&
		(fn.Name() == "Pull" || fn.Name() == "Pull2")
}

// builtinName returns the name of the builtin a call invokes, or "".
func builtinName(info *types.Info, call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}
