package obs

import (
	"go/parser"
	"go/token"
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestNoNetworkImports: internal/vm imports this package, so whatever it
// imports is linked into every binary that runs a cell. The HTTP surface
// lives in internal/serve; a net or net/http import here would put HTTP,
// TLS and x509 back into cgrun, cgstats, cgbench and cgworker.
func TestNoNetworkImports(t *testing.T) {
	files, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	parsed := 0
	for _, f := range files {
		name := f.Name()
		if f.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		parsed++
		for _, imp := range file.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if path == "net" || strings.HasPrefix(path, "net/") {
				t.Errorf("%s imports %q; network code belongs in internal/serve", name, path)
			}
		}
	}
	if parsed == 0 {
		t.Fatal("found no source files to check")
	}
}
