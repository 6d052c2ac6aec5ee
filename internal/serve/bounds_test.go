package serve

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestHTTPServersCarryBounds holds both HTTP servers the binaries build
// (the medea-serve daemon and the medea-scenarios -worker-listen shard
// worker) to the connection bounds. NewHTTPServer sets a header and an
// idle deadline and no write deadline, each binary builds its server with
// it, and no other http.Server literal exists in the module's program
// code, so a server without the bounds cannot come back unnoticed.
func TestHTTPServersCarryBounds(t *testing.T) {
	s := NewHTTPServer(nil)
	if s.ReadHeaderTimeout != readHeaderTimeout || s.IdleTimeout != idleTimeout || readHeaderTimeout <= 0 || idleTimeout <= 0 {
		t.Errorf("NewHTTPServer: ReadHeaderTimeout %v, IdleTimeout %v; want %v and %v", s.ReadHeaderTimeout, s.IdleTimeout, readHeaderTimeout, idleTimeout)
	}
	if s.WriteTimeout != 0 || s.ReadTimeout != 0 {
		t.Errorf("NewHTTPServer: ReadTimeout %v, WriteTimeout %v; a shard response streams as long as the shard runs", s.ReadTimeout, s.WriteTimeout)
	}

	calls := map[string]int{}
	for _, root := range []string{"../../cmd", "../../internal"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					if isSelector(n.Type, "http", "Server") && filepath.ToSlash(path) != "../../internal/serve/http.go" {
						t.Errorf("%s: builds an http.Server itself; use serve.NewHTTPServer", path)
					}
				case *ast.CallExpr:
					if isSelector(n.Fun, "serve", "NewHTTPServer") {
						calls[filepath.ToSlash(filepath.Dir(path))]++
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, bin := range []string{"../../cmd/medea-serve", "../../cmd/medea-scenarios"} {
		if calls[bin] != 1 {
			t.Errorf("%s calls serve.NewHTTPServer %d times, want 1", bin, calls[bin])
		}
	}
}

// isSelector reports whether e is the qualified identifier pkg.name.
func isSelector(e ast.Expr, pkg, name string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == pkg
}
