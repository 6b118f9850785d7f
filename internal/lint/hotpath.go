package lint

import (
	"go/ast"
	"go/types"
)

// HotPathAnalyzer pins the flat-core rewrite structurally: the per-reference
// path — generating a reference, then probing and translating it — runs on
// dense, index-addressed state, and a map operation reappearing inside one
// of those functions is a regression, not a style choice. Maps cost a hash
// per access where the hot path affords an index, and map iteration order
// is randomized — the exact hazards the line table, the chunked PTE store
// and the generator's threshold table were built to remove. The check is
// syntactic and local to the named function bodies; helper functions a hot
// function calls are expected to live in the same file and be equally flat.
var HotPathAnalyzer = &Analyzer{
	Name: "hotpath",
	Doc:  "forbid map operations inside the designated per-reference hot-path functions",
	Run:  runHotPath,
}

// hotPathFuncs names the hot-path methods per package as "Receiver.Method".
// These are the functions run for every memory reference (or every miss):
// the workload generator's step and decision functions, the cache
// lookup/fill/flush surface, the PTE store accessors, and the in-cache
// translation unit.
var hotPathFuncs = map[string]map[string]bool{
	"repro/internal/cache": {
		"Cache.Probe":      true,
		"Cache.Fill":       true,
		"Cache.FlushBlock": true,
		"Cache.FlushPage":  true,
		"Cache.Snoop":      true,
	},
	"repro/internal/pte": {
		"Table.Lookup":     true,
		"Table.Set":        true,
		"Table.Update":     true,
		"Table.Invalidate": true,
	},
	"repro/internal/xlate": {
		"Unit.Translate":       true,
		"Unit.TranslateCached": true,
		"Unit.TranslateMiss":   true,
		"Unit.CheckPTE":        true,
		"Unit.UpdatePTE":       true,
	},
	"repro/internal/workload": {
		"Job.Step":      true,
		"Job.StepBatch": true,
		"Job.ifetch":    true,
		"Job.dataOp":    true,
		"Job.scan":      true,
		"Job.srcScan":   true,
		"Job.stackOp":   true,
		"Job.alloc":     true,
		"Job.heapTouch": true,
		"RNG.Uint64":    true,
		"RNG.Intn":      true,
		"RNG.below":     true,
	},
}

func runHotPath(p *Pass) {
	hot := hotPathFuncs[p.Pkg.Path]
	if hot == nil {
		return
	}
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil {
				continue
			}
			name := recvTypeName(fd) + "." + fd.Name.Name
			if !hot[name] {
				continue
			}
			p.checkHotBody(name, fd.Body)
		}
	}
}

// checkHotBody flags every map operation in the body: iteration, indexing,
// delete, and construction.
func (p *Pass) checkHotBody(fn string, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if isMapType(p.TypeOf(n.X)) {
				p.Reportf(n, "%s is on the per-reference hot path and must stay on dense index-addressed state; this ranges over a map (randomized order, hash per step)", fn)
			}
		case *ast.IndexExpr:
			if isMapType(p.TypeOf(n.X)) {
				p.Reportf(n, "%s is on the per-reference hot path and must stay on dense index-addressed state; %s indexes a map (a hash per reference)", fn, render(n))
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok {
				if _, builtin := p.ObjectOf(id).(*types.Builtin); builtin {
					switch {
					case id.Name == "delete":
						p.Reportf(n, "%s is on the per-reference hot path and must stay on dense index-addressed state; delete mutates a map", fn)
					case id.Name == "make" && len(n.Args) > 0 && isMapType(p.TypeOf(n.Args[0])):
						p.Reportf(n, "%s is on the per-reference hot path and must stay on dense index-addressed state; this allocates a map", fn)
					}
				}
			}
		case *ast.CompositeLit:
			if isMapType(p.TypeOf(n)) {
				p.Reportf(n, "%s is on the per-reference hot path and must stay on dense index-addressed state; this builds a map literal", fn)
			}
		}
		return true
	})
}

// isMapType reports whether t's underlying type is a map.
func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// recvTypeName returns the receiver's base type name ("*Cache" -> "Cache").
func recvTypeName(fd *ast.FuncDecl) string {
	if len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
