package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// TestFuncName pins declarations to the names `go tool nm` prints for
// them once normalize has dropped generic instantiations.
func TestFuncName(t *testing.T) {
	src := `package p
func F() {}
func (T) V() {}
func (*T) P() {}
func (*G[K]) Get() {}
func (H[K, V]) Len() {}
`
	file, err := parser.ParseFile(token.NewFileSet(), "p.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range file.Decls {
		got = append(got, funcName(d.(*ast.FuncDecl)))
	}
	want := []string{"F", "T.V", "(*T).P", "(*G).Get", "H.Len"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("decl %d: %q, want %q", i, got[i], want[i])
		}
	}
}

func TestNormalize(t *testing.T) {
	for sym, want := range map[string]string{
		"semilocal/internal/lcs.PrefixRowMajor":                            "semilocal/internal/lcs.PrefixRowMajor",
		"semilocal/internal/recycle.(*Pool[go.shape.int32]).Get":           "semilocal/internal/recycle.(*Pool).Get",
		"semilocal/internal/combing.drive[go.shape.struct { a []uint16 }]": "semilocal/internal/combing.drive",
	} {
		if got := normalize(sym); got != want {
			t.Errorf("normalize(%q) = %q, want %q", sym, got, want)
		}
	}
}

func TestAllowed(t *testing.T) {
	allow := map[string]string{"a/oracle.*": "reference", "a/lcs.ScoreFull": "reference"}
	for sym, want := range map[string]string{
		"a/oracle.Score":     "a/oracle.*",
		"a/lcs.ScoreFull":    "a/lcs.ScoreFull",
		"a/lcs.Sequence":     "",
		"a/oraclex.Score":    "",
		"a/oracle/sub.Score": "",
	} {
		if got := allowed(allow, sym); got != want {
			t.Errorf("allowed(%q) = %q, want %q", sym, got, want)
		}
	}
}
