//go:build ignore

// Command doclint enforces the godoc contract on selected packages: every
// exported top-level symbol must carry a doc comment, the package comment
// must open canonically ("Package <name> ..." — or "Command ..." for main
// packages), and in a config package (configPackages) every struct field
// carrying a `json:"..."` tag must have a doc comment; numeric ones must
// additionally name their unit (Mbps, ms, µs, seconds, bytes, count, ...)
// so no scenario knob ships without its dimension. It is part of `make ci`
// for the packages whose documentation the deployment and fleet
// walkthroughs depend on.
//
// Usage: go run scripts/doclint.go <dir> [<dir>...]
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: doclint <dir> [<dir>...]")
		os.Exit(2)
	}
	bad := 0
	for _, dir := range os.Args[1:] {
		bad += lintDir(dir)
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "doclint: %d documentation finding(s)\n", bad)
		os.Exit(1)
	}
}

// configPackages names the packages whose json-tagged structs are a config
// surface users write by hand. Elsewhere JSON tags spell a wire format (the
// orchestrator's command log and member RPCs) and the field rule skips them.
var configPackages = map[string]bool{"fleet": true}

// unitTokens are the accepted unit spellings for numeric JSON config
// fields. Each must appear in the field's doc comment as a whole word —
// "ms" inside "items" does not count.
var unitTokens = []string{
	"Mbps", "Gbps", "pps", "ms", "µs", "us", "ns", "seconds", "bytes",
	"CPU units", "count", "fraction", "multiplier", "ratio", "per second",
	"dimensionless",
}

// unitPatterns matches each token at word boundaries (non-letter or edge
// on both sides), precompiled once.
var unitPatterns = func() []*regexp.Regexp {
	pats := make([]*regexp.Regexp, len(unitTokens))
	for i, tok := range unitTokens {
		pats[i] = regexp.MustCompile(`(^|[^\pL])` + regexp.QuoteMeta(tok) + `([^\pL]|$)`)
	}
	return pats
}()

// hasUnit reports whether the doc text names any accepted unit.
func hasUnit(doc string) bool {
	for _, p := range unitPatterns {
		if p.MatchString(doc) {
			return true
		}
	}
	return false
}

// numericKinds are the field type spellings the unit rule applies to.
var numericKinds = map[string]bool{
	"int": true, "int8": true, "int16": true, "int32": true, "int64": true,
	"uint": true, "uint8": true, "uint16": true, "uint32": true, "uint64": true,
	"float32": true, "float64": true,
}

// lintDir parses every non-test Go file in dir and reports findings.
func lintDir(dir string) int {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doclint: %s: %v\n", dir, err)
		return 1
	}
	bad := 0
	report := func(pos token.Pos, format string, args ...any) {
		p := fset.Position(pos)
		fmt.Fprintf(os.Stderr, "%s:%d: %s\n", filepath.ToSlash(p.Filename), p.Line, fmt.Sprintf(format, args...))
		bad++
	}
	for _, pkg := range pkgs {
		bad += lintPackageDoc(fset, pkg)
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() || d.Doc != nil {
						continue
					}
					name := d.Name.Name
					if d.Recv != nil && len(d.Recv.List) > 0 {
						// Only methods on exported receivers matter for godoc.
						if recvName, exported := receiver(d.Recv.List[0].Type); !exported {
							continue
						} else {
							name = recvName + "." + name
						}
					}
					report(d.Pos(), "func %s has no doc comment", name)
				case *ast.GenDecl:
					lintGenDecl(d, configPackages[pkg.Name], report)
				}
			}
		}
	}
	return bad
}

// lintPackageDoc requires a package comment opening "Package <name> " for
// library packages and "Command " for main packages, so the godoc index
// line reads canonically.
func lintPackageDoc(fset *token.FileSet, pkg *ast.Package) int {
	var doc *ast.CommentGroup
	var docFile string
	var anyFile string
	for name, f := range pkg.Files {
		if anyFile == "" || name < anyFile {
			anyFile = name
		}
		if f.Doc != nil {
			doc = f.Doc
			docFile = name
		}
	}
	if doc == nil {
		fmt.Fprintf(os.Stderr, "%s: package %s has no package doc comment\n",
			filepath.ToSlash(anyFile), pkg.Name)
		return 1
	}
	text := doc.Text()
	want := "Package " + pkg.Name + " "
	if pkg.Name == "main" {
		want = "Command "
	}
	if !strings.HasPrefix(text, want) {
		fmt.Fprintf(os.Stderr, "%s: package %s doc comment must start %q\n",
			filepath.ToSlash(docFile), pkg.Name, want+"...")
		return 1
	}
	return 0
}

// lintGenDecl checks exported types, vars, and consts. A doc comment on
// the grouped declaration covers all its specs, matching godoc rendering.
// In a config package, struct types additionally get their json-tagged
// fields checked.
func lintGenDecl(d *ast.GenDecl, config bool, report func(token.Pos, string, ...any)) {
	if d.Tok != token.TYPE && d.Tok != token.VAR && d.Tok != token.CONST {
		return
	}
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
				report(s.Pos(), "type %s has no doc comment", s.Name.Name)
			}
			if st, ok := s.Type.(*ast.StructType); ok && config {
				lintConfigFields(s.Name.Name, st, report)
			}
		case *ast.ValueSpec:
			for _, n := range s.Names {
				if n.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
					report(n.Pos(), "%s %s has no doc comment", d.Tok.String(), n.Name)
				}
			}
		}
	}
}

// lintConfigFields enforces the config-surface contract: every field with a
// `json:"..."` tag must carry a doc comment, and numeric fields must name
// their unit in it — a scenario knob without a dimension is unusable.
func lintConfigFields(typeName string, st *ast.StructType, report func(token.Pos, string, ...any)) {
	for _, field := range st.Fields.List {
		if field.Tag == nil {
			continue
		}
		raw, err := strconv.Unquote(field.Tag.Value)
		if err != nil {
			continue
		}
		key, ok := reflect.StructTag(raw).Lookup("json")
		if !ok || key == "-" {
			continue
		}
		name := key
		if len(field.Names) > 0 {
			name = field.Names[0].Name
		}
		var docText string
		if field.Doc != nil {
			docText = field.Doc.Text()
		} else if field.Comment != nil {
			docText = field.Comment.Text()
		}
		if strings.TrimSpace(docText) == "" {
			report(field.Pos(), "json field %s.%s (json:%q) has no doc comment", typeName, name, key)
			continue
		}
		if ident, isIdent := field.Type.(*ast.Ident); isIdent && numericKinds[ident.Name] {
			if !hasUnit(docText) {
				report(field.Pos(), "json field %s.%s (json:%q) doc names no unit (expected one of: %s)",
					typeName, name, key, strings.Join(unitTokens, ", "))
			}
		}
	}
}

// receiver extracts a method receiver's type name and whether it is
// exported.
func receiver(expr ast.Expr) (string, bool) {
	for {
		switch t := expr.(type) {
		case *ast.StarExpr:
			expr = t.X
		case *ast.IndexExpr:
			expr = t.X
		case *ast.Ident:
			return t.Name, t.IsExported()
		default:
			return "", false
		}
	}
}
