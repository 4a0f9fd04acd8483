// Command linkcheck fails when a non-test function or method declared in
// the root package or under internal/ is linked into none of the
// repository's binaries (cmd/*, examples/* and the bench module) and is
// not on the allowlist in allow.txt. Such a function is either a test
// reference, which the allowlist names with a reason, or dead weight.
//
// Run it from the repository root (make linkcheck does):
//
//	go run ./tools/linkcheck
//
// Every binary is built with -gcflags=all=-l, so no function is inlined
// away, and its text symbols are listed with `go tool nm`. Declarations
// come from the non-test files `go list` selects for the packages.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "linkcheck:", err)
		os.Exit(1)
	}
}

func run() error {
	tmp, err := os.MkdirTemp("", "linkcheck")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	linked, bins, err := linkedSymbols(tmp)
	if err != nil {
		return err
	}
	decls, err := declarations()
	if err != nil {
		return err
	}
	allow, err := readAllowlist(filepath.Join("tools", "linkcheck", "allow.txt"))
	if err != nil {
		return err
	}

	var bad []string
	used := map[string]bool{}
	for _, d := range decls {
		if linked[d.sym] {
			continue
		}
		if e := allowed(allow, d.sym); e != "" {
			used[e] = true
			continue
		}
		bad = append(bad, fmt.Sprintf("%s: %s is linked into no binary", d.pos, d.sym))
	}
	for e := range allow {
		if !used[e] {
			bad = append(bad, fmt.Sprintf("allow.txt: %s names no unlinked function; drop the entry", e))
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		fmt.Println(b)
	}
	if len(bad) > 0 {
		return fmt.Errorf("%d problem(s); delete the function, move it into a _test.go file, or allowlist it with a reason", len(bad))
	}
	fmt.Printf("linkcheck: %d functions, %d binaries, %d allowlisted entries, none unlinked\n", len(decls), bins, len(allow))
	return nil
}

// linkedSymbols builds every binary into dir and returns the set of
// normalized text symbols linked into at least one, and the binary count.
func linkedSymbols(dir string) (map[string]bool, int, error) {
	const noInline = "-gcflags=all=-l"
	if _, err := output(".", "go", "build", noInline, "-o", dir+string(filepath.Separator), "./cmd/...", "./examples/..."); err != nil {
		return nil, 0, err
	}
	if _, err := output("bench", "go", "build", noInline, "-o", filepath.Join(dir, "bench"), "."); err != nil {
		return nil, 0, err
	}
	bins, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, err
	}
	linked := map[string]bool{}
	for _, bin := range bins {
		out, err := output(".", "go", "tool", "nm", filepath.Join(dir, bin.Name()))
		if err != nil {
			return nil, 0, err
		}
		for _, line := range strings.Split(string(out), "\n") {
			// "addr T name"; a generic shape may put spaces in name.
			if f := strings.Fields(line); len(f) >= 3 && (f[1] == "T" || f[1] == "t") {
				linked[normalize(strings.Join(f[2:], " "))] = true
			}
		}
	}
	return linked, len(bins), nil
}

// normalize drops generic instantiations ("[go.shape.int]"), so a
// symbol reads as its declaration does.
func normalize(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

type decl struct{ sym, pos string }

// declarations lists every non-test function and method of the root
// package and internal/..., named as the linker names them.
func declarations() ([]decl, error) {
	out, err := output(".", "go", "list", "-f", "{{.ImportPath}}\t{{.Dir}}\t{{join .GoFiles \"\t\"}}", ".", "./internal/...")
	if err != nil {
		return nil, err
	}
	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	var decls []decl
	fset := token.NewFileSet()
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Split(line, "\t") // import path, directory, files
		for _, name := range f[2:] {
			file, err := parser.ParseFile(fset, filepath.Join(f[1], name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			for _, d := range file.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Name.Name != "init" && fn.Name.Name != "_" {
					pos := fset.Position(fn.Pos())
					if rel, err := filepath.Rel(wd, pos.Filename); err == nil {
						pos.Filename = rel
					}
					decls = append(decls, decl{f[0] + "." + funcName(fn), pos.String()})
				}
			}
		}
	}
	return decls, nil
}

// funcName renders fn as the linker does: F, T.M or (*T).M.
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv == nil {
		return fn.Name.Name
	}
	t := fn.Recv.List[0].Type
	star := false
	if s, ok := t.(*ast.StarExpr); ok {
		star, t = true, s.X
	}
	switch g := t.(type) {
	case *ast.IndexExpr:
		t = g.X
	case *ast.IndexListExpr:
		t = g.X
	}
	recv := t.(*ast.Ident).Name
	if star {
		recv = "(*" + recv + ")"
	}
	return recv + "." + fn.Name.Name
}

// readAllowlist reads "symbol reason" lines; a symbol ending in ".*"
// covers a whole package. Every entry must give a reason.
func readAllowlist(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	allow := map[string]string{}
	for i, line := range strings.Split(string(data), "\n") {
		if line = strings.TrimSpace(line); line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sym, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: %s gives no reason", path, i+1, sym)
		}
		allow[sym] = reason
	}
	return allow, nil
}

// allowed returns the allowlist entry covering sym, or "".
func allowed(allow map[string]string, sym string) string {
	if _, ok := allow[sym]; ok {
		return sym
	}
	for e := range allow {
		if pkg, ok := strings.CutSuffix(e, ".*"); ok && strings.HasPrefix(sym, pkg+".") {
			return e
		}
	}
	return ""
}

func output(dir, name string, args ...string) ([]byte, error) {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", name, strings.Join(args, " "), err)
	}
	return out, nil
}
