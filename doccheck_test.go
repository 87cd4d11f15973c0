package lwcomp_test

// This file is the documentation gate CI runs: every exported symbol
// in the public package and in every internal package must carry a
// godoc comment. It fails listing the undocumented symbols, so the
// fix is always "write the missing comment", never "find the tool".
// DESIGN.md must carry no placeholder left for a figure to be
// measured later.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// placeholder matches an all-caps token with an underscore, such as
// RUNS_TABLE: the shape of a figure left to be filled in. Code spans
// and fenced blocks are not prose and are not searched.
var (
	placeholder = regexp.MustCompile(`\b[A-Z][A-Z0-9]*_[A-Z0-9_]*[A-Z0-9]\b`)
	codeSpan    = regexp.MustCompile("`[^`]*`")
)

// TestDesignHasNoPlaceholders fails on every placeholder token in
// DESIGN.md's prose, with its line.
func TestDesignHasNoPlaceholders(t *testing.T) {
	data, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	fenced := false
	for i, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if fenced {
			continue
		}
		for _, tok := range placeholder.FindAllString(codeSpan.ReplaceAllString(line, ""), -1) {
			t.Errorf("DESIGN.md:%d: placeholder %s", i+1, tok)
		}
	}
}

// packageDirs returns the repository's Go package directories: the
// root and every directory under internal/ and cmd/ that holds Go
// files.
func packageDirs(t *testing.T) []string {
	t.Helper()
	dirs := []string{"."}
	for _, tree := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(tree, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			entries, err := os.ReadDir(path)
			if err != nil {
				return err
			}
			for _, e := range entries {
				if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
					dirs = append(dirs, path)
					break
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return dirs
}

// isGenerated reports the standard "Code generated ... DO NOT EDIT."
// marker, which exempts a file from the documentation gate.
func isGenerated(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.End() >= f.Package {
			break
		}
		for _, c := range cg.List {
			if strings.Contains(c.Text, "DO NOT EDIT") {
				return true
			}
		}
	}
	return false
}

// TestGodocCoverage enforces the documentation contract: a package
// comment per package and a doc comment on every exported type,
// function, method, constant and variable.
func TestGodocCoverage(t *testing.T) {
	fset := token.NewFileSet()
	var missing []string
	for _, dir := range packageDirs(t) {
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			hasPkgDoc := false
			for _, f := range pkg.Files {
				if f.Doc != nil {
					hasPkgDoc = true
				}
			}
			if !hasPkgDoc {
				missing = append(missing, dir+": package "+pkg.Name+" has no package comment")
			}
			for path, f := range pkg.Files {
				if isGenerated(f) {
					continue
				}
				for _, decl := range f.Decls {
					missing = append(missing, undocumented(path, decl)...)
				}
			}
		}
	}
	if len(missing) > 0 {
		t.Errorf("%d undocumented exported symbols:\n  %s",
			len(missing), strings.Join(missing, "\n  "))
	}
}

// undocumented returns the exported, doc-less symbols of one
// top-level declaration.
func undocumented(path string, decl ast.Decl) []string {
	var out []string
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() || !receiverExported(d) {
			return nil
		}
		if d.Doc == nil {
			out = append(out, path+": "+funcLabel(d))
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() && d.Doc == nil && s.Doc == nil {
					out = append(out, path+": type "+s.Name.Name)
				}
				// Exported struct fields and interface methods ride
				// on the type's doc; they are not gated.
			case *ast.ValueSpec:
				// A doc comment on the const/var block covers the
				// whole group.
				if d.Doc != nil || s.Doc != nil || s.Comment != nil {
					continue
				}
				for _, name := range s.Names {
					if name.IsExported() {
						out = append(out, path+": "+name.Name)
					}
				}
			}
		}
	}
	return out
}

// receiverExported reports whether a method's receiver type is
// exported (methods on unexported types are internal API).
func receiverExported(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	for {
		switch v := t.(type) {
		case *ast.StarExpr:
			t = v.X
		case *ast.IndexExpr: // generic receiver
			t = v.X
		case *ast.IndexListExpr:
			t = v.X
		case *ast.Ident:
			return v.IsExported()
		default:
			return true
		}
	}
}

// funcLabel renders "func Name" or "method (T) Name".
func funcLabel(d *ast.FuncDecl) string {
	if d.Recv == nil {
		return "func " + d.Name.Name
	}
	return "method " + d.Name.Name
}
