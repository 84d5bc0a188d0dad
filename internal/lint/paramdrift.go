package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// ParamDrift reports drift between an operator kind's declarative
// OpModel and the Binder calls its implementation actually performs.
var ParamDrift = &Analyzer{
	Name: "paramdrift",
	Doc: `operator OpModel parameter declarations must match the Binder calls in the operator's methods

For every RegisterOp(kind, factory, &OpModel{...}) whose factory
resolves to a local operator type, the analyzer cross-checks the
model's ParamSpec list against every Binder read (Str, Int, Float,
Bool, Duration, Enum) in the operator type's methods. It reports
parameters that are bound but undeclared (the compiler would reject
every legitimate use of the name at Build time), declared but never
bound (a misspelled Bind key silently takes its default forever), and
bound under a different type than declared. (RegisterOp itself rejects
a PartitionKey naming an undeclared parameter.)`,
	Run: runParamDrift,
}

// binderMethods maps Binder's read methods to the ParamType they imply.
var binderMethods = map[string]paramType{
	"Int": paramInt, "Float": paramFloat, "Bool": paramBool,
	"Duration": paramDuration, "Enum": paramEnum, "Str": paramString,
}

// paramType mirrors opapi.ParamType's constant values; the analyzer
// reads the declared type as a folded constant, so the two cannot
// drift without the fixture tests noticing.
type paramType int64

const (
	// paramUnknown marks a declared Type the analyzer could not fold.
	paramUnknown paramType = 0

	paramString paramType = iota
	paramInt
	paramFloat
	paramBool
	paramDuration
	paramEnum
)

func (t paramType) String() string {
	switch t {
	case paramString:
		return "string"
	case paramInt:
		return "int64"
	case paramFloat:
		return "float64"
	case paramBool:
		return "boolean"
	case paramDuration:
		return "duration"
	case paramEnum:
		return "enum"
	default:
		return fmt.Sprintf("paramType(%d)", int64(t))
	}
}

// declaredParam is one ParamSpec read from a registration's model
// literal.
type declaredParam struct {
	name string
	typ  paramType
	pos  token.Pos
}

// bindCall is one parameter binding found in an operator's methods.
type bindCall struct {
	key string
	typ paramType
	pos token.Pos
}

// registration pairs a RegisterOp call's declarative model with the
// operator type its factory constructs.
type registration struct {
	kind   string
	pos    token.Pos
	params []declaredParam
	opType *types.Named
}

func runParamDrift(pass *Pass) error {
	funcDecls := indexFuncDecls(pass)
	var regs []registration
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			m := calledMethod(pass.TypesInfo, call)
			if m == nil || m.Name() != "RegisterOp" || !funcIsFrom(m, opapiPath) || len(call.Args) != 3 {
				return true
			}
			reg := registration{pos: call.Pos()}
			if k, ok := stringConst(pass.TypesInfo, call.Args[0]); ok {
				reg.kind = k
			}
			reg.opType = factoryResultType(pass, funcDecls, call.Args[1])
			model, ok := modelLiteral(call.Args[2])
			if !ok {
				return true // nil model or non-literal: nothing declarative to check
			}
			readModel(pass, funcDecls, model, &reg)
			regs = append(regs, reg)
			return true
		})
	}
	for i := range regs {
		checkRegistration(pass, &regs[i])
	}
	return nil
}

// indexFuncDecls maps each package-level function object to its
// declaration, so factory closures and parameter-list helpers can be
// resolved through one call hop.
func indexFuncDecls(pass *Pass) map[*types.Func]*ast.FuncDecl {
	out := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					out[obj] = fd
				}
			}
		}
	}
	return out
}

// modelLiteral unwraps &OpModel{...} (or OpModel{...}) into its
// composite literal.
func modelLiteral(e ast.Expr) (*ast.CompositeLit, bool) {
	e = unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = unparen(u.X)
	}
	lit, ok := e.(*ast.CompositeLit)
	return lit, ok
}

// readModel extracts the declared parameters from an OpModel composite
// literal. A Params field given as a call to a local helper that
// returns a []ParamSpec literal (the shared-parameter-block idiom) is
// followed through one hop.
func readModel(pass *Pass, decls map[*types.Func]*ast.FuncDecl, model *ast.CompositeLit, reg *registration) {
	for _, elt := range model.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if key, ok := kv.Key.(*ast.Ident); !ok || key.Name != "Params" {
			continue
		}
		if lit := paramListLiteral(pass, decls, kv.Value); lit != nil {
			reg.params = append(reg.params, readParamSpecs(pass, lit)...)
		}
	}
}

// paramListLiteral resolves a Params field value to a []ParamSpec
// composite literal — directly, or through a call to a local helper
// whose body is a single "return []ParamSpec{...}".
func paramListLiteral(pass *Pass, decls map[*types.Func]*ast.FuncDecl, e ast.Expr) *ast.CompositeLit {
	e = unparen(e)
	if lit, ok := e.(*ast.CompositeLit); ok {
		return lit
	}
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return nil
	}
	fn := calledMethod(pass.TypesInfo, call)
	if fn == nil {
		return nil
	}
	decl, ok := decls[fn]
	if !ok || decl.Body == nil || len(decl.Body.List) != 1 {
		return nil
	}
	ret, ok := decl.Body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return nil
	}
	lit, _ := unparen(ret.Results[0]).(*ast.CompositeLit)
	return lit
}

// readParamSpecs reads Name and Type out of each ParamSpec element.
func readParamSpecs(pass *Pass, list *ast.CompositeLit) []declaredParam {
	var out []declaredParam
	for _, elt := range list.Elts {
		spec, ok := unparen(elt).(*ast.CompositeLit)
		if !ok {
			continue
		}
		p := declaredParam{pos: spec.Pos()}
		for _, f := range spec.Elts {
			kv, ok := f.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			key, ok := kv.Key.(*ast.Ident)
			if !ok {
				continue
			}
			switch key.Name {
			case "Name":
				if v, ok := stringConst(pass.TypesInfo, kv.Value); ok {
					p.name = v
					p.pos = kv.Value.Pos()
				}
			case "Type":
				if v, ok := intConst(pass.TypesInfo, kv.Value); ok {
					p.typ = paramType(v)
				}
			}
		}
		if p.name != "" {
			out = append(out, p)
		}
	}
	return out
}

// factoryResultType resolves the operator type a factory constructs:
// the named type behind the value returned by the func literal (or
// local function) passed as RegisterOp's factory argument.
func factoryResultType(pass *Pass, decls map[*types.Func]*ast.FuncDecl, e ast.Expr) *types.Named {
	var body *ast.BlockStmt
	switch fun := unparen(e).(type) {
	case *ast.FuncLit:
		body = fun.Body
	case *ast.Ident:
		if obj, ok := pass.TypesInfo.Uses[fun].(*types.Func); ok {
			if decl, ok := decls[obj]; ok {
				body = decl.Body
			}
		}
	}
	if body == nil {
		return nil
	}
	var result *types.Named
	ast.Inspect(body, func(n ast.Node) bool {
		if result != nil {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || len(ret.Results) != 1 {
			return true
		}
		if tv, ok := pass.TypesInfo.Types[ret.Results[0]]; ok {
			if n := namedType(tv.Type); n != nil && n.Obj().Pkg() == pass.Pkg {
				result = n
			}
		}
		return true
	})
	return result
}

// collectBinds gathers every parameter binding in the methods of the
// operator type. The second result reports whether any binding used a
// non-constant key, which disables the declared-but-unbound check (the
// analyzer cannot see which names a dynamic key covers).
func collectBinds(pass *Pass, opType *types.Named) ([]bindCall, bool) {
	var binds []bindCall
	dynamic := false
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			recv := namedType(methodRecv(obj))
			if recv == nil || recv.Obj() != opType.Obj() {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				m := calledMethod(pass.TypesInfo, call)
				if m == nil || !funcIsFrom(m, opapiPath) || len(call.Args) < 1 ||
					!typeIs(methodRecv(m), opapiPath, "Binder") {
					return true
				}
				typ, ok := binderMethods[m.Name()]
				if !ok {
					return true
				}
				key, ok := stringConst(pass.TypesInfo, call.Args[0])
				if !ok {
					dynamic = true
					return true
				}
				binds = append(binds, bindCall{key: key, typ: typ, pos: call.Args[0].Pos()})
				return true
			})
		}
	}
	return binds, dynamic
}

func checkRegistration(pass *Pass, reg *registration) {
	declared := make(map[string]declaredParam, len(reg.params))
	names := make([]string, 0, len(reg.params))
	for _, p := range reg.params {
		declared[p.name] = p
		names = append(names, p.name)
	}
	sort.Strings(names)
	if reg.opType == nil {
		return // factory not statically resolvable: nothing to compare
	}
	binds, dynamic := collectBinds(pass, reg.opType)
	bound := make(map[string]bool, len(binds))
	for _, b := range binds {
		bound[b.key] = true
		d, ok := declared[b.key]
		if !ok {
			pass.Reportf(b.pos,
				"kind %q: %s binds param %q, which its OpModel does not declare (declared: %s)",
				reg.kind, reg.opType.Obj().Name(), b.key, orNone(names))
			continue
		}
		if d.typ != paramUnknown && d.typ != b.typ {
			pass.Reportf(b.pos,
				"kind %q: param %q is declared %s but bound as %s",
				reg.kind, b.key, d.typ, b.typ)
		}
	}
	if dynamic {
		return
	}
	for _, p := range reg.params {
		if !bound[p.name] {
			pass.Reportf(p.pos,
				"kind %q: declared param %q is never bound by %s — a submitted value would silently never be read",
				reg.kind, p.name, reg.opType.Obj().Name())
		}
	}
}

func orNone(names []string) string {
	if len(names) == 0 {
		return "(none)"
	}
	return strings.Join(names, ", ")
}
