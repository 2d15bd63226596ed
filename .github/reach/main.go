// Command reach is the reachability gate: every function under internal/
// must be run by a program, or be named in allowlist.txt with its reason.
//
// It builds every main package in the module with inlining off for the
// module's own packages, so every called function keeps its symbol, and
// the linker's -dumpdep prints one "caller -> callee" line per reachable
// edge. The union of those symbols is compared with every non-test
// function declaration that has a body in a file under internal/ that
// builds for this host with default tags. A function no program reaches
// and the allowlist does not name fails the gate, and so does an
// allowlist line whose function is reached or no longer declared.
//
// A program whose dump has a <ReflectMethod> edge fails the gate too. A
// call to reflect's Method or MethodByName with a name it cannot resolve
// at link time (text/template and html/template make one) makes the
// linker keep every exported method of every type converted to an
// interface, whether or not anything calls it, so the census cannot see
// which of them are run.
//
// Run it from the repository root:
//
//	go run ./.github/reach        # the gate
//	go run ./.github/reach -v     # also list each unreachable function
//
// The module's tree lives under ./..., which skips dot directories, so
// this program is not one of the programs it measures.
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

const allowlistPath = ".github/reach/allowlist.txt"

// fn is one function declaration: its linker name relative to the
// module ("internal/pkg.F", "internal/pkg.(*T).M", "internal/pkg.T.M")
// and the lines its body spans.
type fn struct {
	name  string
	pos   string
	lines int
	value bool // a value-receiver method, also called as pkg.(*T).M
}

func main() {
	verbose := flag.Bool("v", false, "list each unreachable function")
	flag.Parse()
	if err := run(*verbose); err != nil {
		fmt.Fprintln(os.Stderr, "reach:", err)
		os.Exit(1)
	}
}

func run(verbose bool) error {
	module, err := goOut("list", "-m")
	if err != nil {
		return err
	}
	module = strings.TrimSpace(module)
	mains, err := goOut("list", "-f", `{{if eq .Name "main"}}{{.ImportPath}}{{end}}`, "./...")
	if err != nil {
		return err
	}
	progs := strings.Fields(mains)
	reached := map[string]map[string]bool{} // symbol -> programs reaching it
	var failures []string
	for _, p := range progs {
		syms, reflectEdge, err := dumpdep(module, p)
		if err != nil {
			return err
		}
		if reflectEdge != "" {
			failures = append(failures, fmt.Sprintf("%s: links %q: a reflective method lookup keeps every exported method of every type in an interface, so the census cannot see through it; drop the reflection (text/template, html/template, reflect's Method/MethodByName)", p, reflectEdge))
		}
		for s := range syms {
			if reached[s] == nil {
				reached[s] = map[string]bool{}
			}
			reached[s][p] = true
		}
	}
	fns, err := declared("internal")
	if err != nil {
		return err
	}
	allow, err := readAllowlist(allowlistPath)
	if err != nil {
		return err
	}

	bench := module + "/bench"
	var total, benchOnly, dead, deadLines int
	seen := map[string]bool{}
	for _, f := range fns {
		total += f.lines
		seen[f.name] = true
		by := reached[f.name]
		if f.value && by == nil {
			by = reached[pointerForm(f.name)]
		}
		if len(by) == 1 && by[bench] {
			benchOnly += f.lines
		}
		if len(by) > 0 {
			if _, ok := allow[f.name]; ok {
				failures = append(failures, fmt.Sprintf("%s: allowlisted but reached by a program; drop its line", f.name))
			}
			continue
		}
		dead++
		deadLines += f.lines
		if verbose {
			fmt.Printf("unreachable %s (%s, %d lines)\n", f.name, f.pos, f.lines)
		}
		if _, ok := allow[f.name]; !ok {
			failures = append(failures, fmt.Sprintf("%s (%s): no program reaches it; delete it, move it into a _test.go file, or allowlist it with a reason", f.name, f.pos))
		}
	}
	for name := range allow {
		if !seen[name] {
			failures = append(failures, fmt.Sprintf("%s: allowlisted but not declared; drop its line", name))
		}
	}
	sort.Strings(failures)

	fmt.Printf("reach: %d programs; %d functions, %d body lines under internal/\n", len(progs), len(fns), total)
	fmt.Printf("reach: unreachable from every program: %d functions, %d body lines (allowlist: %d)\n", dead, deadLines, len(allow))
	fmt.Printf("reach: reachable only from %s: %d body lines\n", strings.TrimPrefix(bench, module+"/"), benchOnly)
	for _, f := range failures {
		fmt.Println("FAIL", f)
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d failure(s)", len(failures))
	}
	return nil
}

func goOut(args ...string) (string, error) {
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
	}
	return string(out), nil
}

// dumpdep links one program and returns the module functions it
// reaches, named relative to the module, and its first <ReflectMethod>
// edge ("" if it has none). A generic function is named
// once per instantiation ("F[go.shape.int]"), a func value "F·f", a
// method value "M-fm", and a closure after the function it is declared
// in ("F.func1", "F.func1.2", "F.deferwrap1", "F.gowrap1"; an init
// function is "init.0"): all of these count as their function. The
// compiler's per-function data ("F.stkobj", "F.arginfo1", ...) does not:
// the linker shares identical data between functions under one of their
// names.
func dumpdep(module, prog string) (map[string]bool, string, error) {
	cmd := exec.Command("go", "build", "-o", os.DevNull,
		"-gcflags="+module+"/...=-l", "-ldflags=-dumpdep", prog)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, "", err
	}
	if err := cmd.Start(); err != nil {
		return nil, "", err
	}
	syms := map[string]bool{}
	reflectEdge := ""
	prefix := module + "/"
	sc := bufio.NewScanner(stderr)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var other []string
	for sc.Scan() {
		line := sc.Text()
		from, to, ok := strings.Cut(line, " -> ")
		if !ok {
			if !strings.HasPrefix(line, "# ") {
				other = append(other, line)
			}
			continue
		}
		if reflectEdge == "" && strings.Contains(line, " <ReflectMethod>") {
			reflectEdge = line
		}
		for _, s := range [2]string{from, to} {
			if s, ok = strings.CutPrefix(s, prefix); ok {
				syms[funcOf(s)] = true
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, "", err
	}
	if err := cmd.Wait(); err != nil {
		return nil, "", fmt.Errorf("build %s: %v\n%s", prog, err, strings.Join(other, "\n"))
	}
	return syms, reflectEdge, nil
}

var (
	// generic matches one level of an instantiation's type list.
	generic = regexp.MustCompile(`\[[^\[\]]*\]`)
	// closure matches a closure's suffix on its function's name.
	closure = regexp.MustCompile(`(\.(func|deferwrap|gowrap)?[0-9]+)+$`)
)

// funcOf strips a symbol down to the function it belongs to.
func funcOf(s string) string {
	for generic.MatchString(s) {
		s = generic.ReplaceAllString(s, "")
	}
	s = strings.TrimSuffix(strings.TrimSuffix(s, "·f"), "-fm")
	return closure.ReplaceAllString(s, "")
}

// pointerForm turns "pkg.T.M" into "pkg.(*T).M": the wrapper through
// which a value method is called on a pointer.
func pointerForm(name string) string {
	slash := strings.LastIndexByte(name, '/')
	pkg, rest, _ := strings.Cut(name[slash+1:], ".")
	return name[:slash+1] + pkg + ".(*" + strings.Replace(rest, ".", ").", 1)
}

// declared walks the non-test Go files under root that build for this
// host with default tags and returns every function declaration with a
// body.
func declared(root string) ([]fn, error) {
	var fns []fn
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		name := d.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(path), name); err != nil || !ok {
			return err
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(filepath.Dir(path))
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			f := fn{
				name:  pkg + "." + fd.Name.Name,
				pos:   fmt.Sprintf("%s:%d", path, fset.Position(fd.Pos()).Line),
				lines: fset.Position(fd.Body.End()).Line - fset.Position(fd.Body.Pos()).Line + 1,
			}
			if fd.Recv != nil && len(fd.Recv.List) == 1 {
				recv, ptr := receiver(fd.Recv.List[0].Type)
				if ptr {
					f.name = pkg + ".(*" + recv + ")." + fd.Name.Name
				} else {
					f.name = pkg + "." + recv + "." + fd.Name.Name
					f.value = true
				}
			}
			fns = append(fns, f)
		}
		return nil
	})
	return fns, err
}

// receiver returns a method's receiver type name, without type
// parameters, and whether it is a pointer.
func receiver(e ast.Expr) (string, bool) {
	ptr := false
	if s, ok := e.(*ast.StarExpr); ok {
		e, ptr = s.X, true
	}
	switch t := e.(type) {
	case *ast.IndexExpr:
		e = t.X
	case *ast.IndexListExpr:
		e = t.X
	}
	id, _ := e.(*ast.Ident)
	if id == nil {
		return "?", ptr
	}
	return id.Name, ptr
}

// readAllowlist reads "name  reason" lines; blank lines and lines
// starting with # are skipped. Every entry must give a reason.
func readAllowlist(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	allow := map[string]string{}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", path, i+1, name)
		}
		if _, dup := allow[name]; dup {
			return nil, fmt.Errorf("%s:%d: %s listed twice", path, i+1, name)
		}
		allow[name] = strings.TrimSpace(reason)
	}
	return allow, nil
}
