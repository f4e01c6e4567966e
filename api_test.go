package hwtwbg

import (
	"bytes"
	"go/ast"
	"go/build"
	"go/doc"
	"go/parser"
	"go/printer"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestAPISurface pins the exported Go API of the root package, kv,
// journal and lockservice in testdata/api.golden: one line per
// declaration go/doc lists — a constant or variable group by its
// names, a function or method by its signature, a type by its exported
// fields or methods — so a package's line count is its `go doc -all`
// entry count. A name added or removed shows up as a golden diff;
// rewrite it with `go test -run APISurface . -args -update`.
func TestAPISurface(t *testing.T) {
	var b strings.Builder
	line := func(s string) { b.WriteString(s + "\n") }
	src := func(n ast.Node) string {
		var buf bytes.Buffer
		if err := printer.Fprint(&buf, token.NewFileSet(), n); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	values := func(vs []*doc.Value) {
		for _, v := range vs {
			var names []string
			for _, spec := range v.Decl.Specs {
				for _, n := range spec.(*ast.ValueSpec).Names {
					if n.IsExported() {
						names = append(names, n.Name)
					}
				}
			}
			line(v.Decl.Tok.String() + " " + strings.Join(names, ", "))
		}
	}
	funcs := func(fs []*doc.Func) {
		for _, f := range fs {
			f.Decl.Body = nil
			line(src(f.Decl))
		}
	}
	for _, dir := range []string{".", "kv", "journal", "lockservice"} {
		// The plain (untagged) build's non-test files, parsed without
		// comments: go/doc keeps only the exported declarations.
		bp, err := build.ImportDir(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		fset := token.NewFileSet()
		var files []*ast.File
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		p, err := doc.NewFromFiles(fset, files, "hwtwbg/"+dir)
		if err != nil {
			t.Fatal(err)
		}
		line("package " + p.Name)
		values(p.Consts)
		values(p.Vars)
		funcs(p.Funcs)
		for _, typ := range p.Types {
			spec := typ.Decl.Specs[0].(*ast.TypeSpec)
			var members []string
			switch tt := spec.Type.(type) {
			case *ast.StructType:
				members = fieldNames(src, tt.Fields)
				line("type " + spec.Name.Name + " struct{" + strings.Join(members, ", ") + "}")
			case *ast.InterfaceType:
				members = fieldNames(src, tt.Methods)
				line("type " + spec.Name.Name + " interface{" + strings.Join(members, ", ") + "}")
			default:
				line("type " + src(spec))
			}
			values(typ.Consts)
			values(typ.Vars)
			funcs(typ.Funcs)
			funcs(typ.Methods)
		}
		line("")
	}
	checkGolden(t, "api.golden", b.String())
}

// fieldNames lists a struct's fields or an interface's methods by name,
// an embedded one by its type.
func fieldNames(src func(ast.Node) string, fl *ast.FieldList) []string {
	var names []string
	for _, f := range fl.List {
		if len(f.Names) == 0 {
			names = append(names, src(f.Type))
		}
		for _, n := range f.Names {
			names = append(names, n.Name)
		}
	}
	return names
}
