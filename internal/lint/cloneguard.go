package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// CloneGuard catches the "added a field, forgot Clone" bug class at compile
// time: for every struct type with a Clone/Snapshot/Restore method (any
// case), each field of the struct must be referenced somewhere in that
// method's body, or carry an //uflint:shared or //uflint:scratch annotation.
// A whole-struct copy (`*recv` in the body) copies every field at once, but
// it only vouches for fields of value type: a field holding a slice, map,
// pointer, interface, channel or function — directly or inside a struct or
// array — would be shared between the copy and the original, so it must
// still be referenced (deep-copied) explicitly or annotated.
//
// A cloneInto method overwrites a destination that may be a recycled copy
// of an earlier state, so a field mentioned only through the destination
// (reusing its buffer, say) would keep the stale value: there every field
// must be read from the receiver — `recv.field`, or the whole-struct copy.
// A Clone whose body is just `return recv.cloneInto(nil)` is checked
// through that cloneInto instead of field by field.
//
// The differential clone-vs-rebuild oracles catch a missed field only when
// a test drives state through it; this check fires the moment the field is
// declared.
var CloneGuard = &Analyzer{
	Name: "cloneguard",
	Doc: `every field of a struct with a Clone/Snapshot/Restore/cloneInto method
must be referenced in that method or annotated //uflint:shared or //uflint:scratch;
a whole-struct copy covers only the fields of value type; a cloneInto must
read every field from its receiver`,
	Run: runCloneGuard,
}

// isCloneMethodName matches lower- and upper-case variants: the repo's
// internal clone helpers (state.cloneInto) carry the same contract as the
// exported Clone methods.
func isCloneMethodName(name string) bool {
	switch strings.ToLower(name) {
	case "clone", "snapshot", "restore", "cloneinto":
		return true
	}
	return false
}

// isCloneInto reports whether a method name is cloneInto or CloneInto.
func isCloneInto(name string) bool { return strings.EqualFold(name, "cloneinto") }

func runCloneGuard(pass *Pass) error {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil || !isCloneMethodName(fd.Name.Name) {
				continue
			}
			fn, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			recv := fn.Signature().Recv()
			if recv == nil {
				continue
			}
			st, ok := derefStruct(recv.Type())
			if !ok || st.NumFields() == 0 {
				continue
			}
			checkCloneMethod(pass, fd, recv, st)
		}
	}
	return nil
}

// derefStruct unwraps a (possibly pointer) receiver type to its struct
// underlying type.
func derefStruct(t types.Type) (*types.Struct, bool) {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	return st, ok
}

func checkCloneMethod(pass *Pass, fd *ast.FuncDecl, recv *types.Var, st *types.Struct) {
	info := pass.Pkg.Info

	// Identify the receiver's object so `cp := *c` (a whole-struct copy,
	// which reads every field) can be recognized.
	var recvObj types.Object
	if names := fd.Recv.List[0].Names; len(names) == 1 {
		recvObj = info.Defs[names[0]]
	}
	isRecv := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && recvObj != nil && info.Uses[id] == recvObj
	}
	if delegatesToCloneInto(info, fd, recv, isRecv) {
		return
	}
	strict := isCloneInto(fd.Name.Name)

	// Field identity across generic instantiation is by declaration
	// position: the instantiated field objects keep the source positions of
	// the generic declaration. A cloneInto counts only reads through the
	// receiver.
	referenced := make(map[int]bool, st.NumFields())
	wholeCopy := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		var id *ast.Ident
		switch n := n.(type) {
		case *ast.Ident:
			if !strict {
				id = n
			}
		case *ast.SelectorExpr:
			if strict && isRecv(n.X) {
				id = n.Sel
			}
		case *ast.StarExpr:
			wholeCopy = wholeCopy || isRecv(n.X)
		}
		if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
			referenced[int(v.Pos())] = true
		}
		return true
	})
	for i := 0; i < st.NumFields(); i++ {
		fld := st.Field(i)
		if referenced[int(fld.Pos())] || pass.fieldExempt(fld.Pos()) {
			continue
		}
		recvName := types.TypeString(recv.Type(), types.RelativeTo(pass.Pkg.Types))
		switch {
		case strict && !wholeCopy:
			pass.Reportf(fld.Pos(), "clonefield",
				"field %s is not read from the receiver in (%s).%s, so a recycled destination keeps its stale value; copy it there or annotate it //uflint:shared or //uflint:scratch",
				fld.Name(), recvName, fd.Name.Name)
		case !wholeCopy:
			pass.Reportf(fld.Pos(), "clonefield",
				"field %s is not referenced in (%s).%s; clone it there or annotate it //uflint:shared or //uflint:scratch",
				fld.Name(), recvName, fd.Name.Name)
		case sharesMemory(fld.Type()):
			pass.Reportf(fld.Pos(), "clonefield",
				"field %s shares memory through the whole-struct copy in (%s).%s; deep-copy it there or annotate it //uflint:shared or //uflint:scratch",
				fld.Name(), recvName, fd.Name.Name)
		}
	}
}

// delegatesToCloneInto reports whether fd's body is exactly
// `return recv.cloneInto(nil)` with cloneInto a method of the receiver's own
// type: such a Clone is checked through cloneInto.
func delegatesToCloneInto(info *types.Info, fd *ast.FuncDecl, recv *types.Var, isRecv func(ast.Expr) bool) bool {
	if len(fd.Body.List) != 1 {
		return false
	}
	ret, ok := fd.Body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return false
	}
	call, ok := ret.Results[0].(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !isCloneInto(sel.Sel.Name) || !isRecv(sel.X) {
		return false
	}
	if arg, ok := call.Args[0].(*ast.Ident); !ok || info.Uses[arg] != types.Universe.Lookup("nil") {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	return types.Identical(baseType(fn.Signature().Recv().Type()), baseType(recv.Type()))
}

// baseType strips one pointer from a receiver type.
func baseType(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// sharesMemory reports whether copying a value of type t leaves the copy
// aliasing the original: t is, or holds in a struct field or array element,
// a slice, map, pointer, interface, channel or function. Cycles can only
// run through those kinds, so the recursion terminates.
func sharesMemory(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return false
	case *types.Array:
		return sharesMemory(u.Elem())
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if sharesMemory(u.Field(i).Type()) {
				return true
			}
		}
		return false
	default:
		return true
	}
}
