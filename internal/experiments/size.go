package experiments

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"runtime"
)

// Statement counting behind Table 3-1. The paper counted semicolons in C++
// source as a statement proxy; the Go analog counts AST statements plus
// declarations.

// repoRoot locates the repository source tree from this file's position.
func repoRoot() string {
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		return "."
	}
	return filepath.Dir(filepath.Dir(filepath.Dir(file)))
}

// CountStatements parses the named Go files and counts their statements:
// every ast.Stmt except plain blocks, plus one per declaration — the
// closest analog to the paper's semicolon metric.
func CountStatements(files []string) (int, error) {
	fset := token.NewFileSet()
	total := 0
	for _, f := range files {
		parsed, err := parser.ParseFile(fset, f, nil, 0)
		if err != nil {
			return 0, fmt.Errorf("experiments: parse %s: %w", f, err)
		}
		ast.Inspect(parsed, func(n ast.Node) bool {
			switch n.(type) {
			case *ast.BlockStmt:
				// A block is punctuation, not a statement.
			case ast.Stmt:
				total++
			case *ast.FuncDecl, *ast.GenDecl:
				total++
			}
			return true
		})
	}
	return total, nil
}

// CountDir counts the statements in every non-test Go file of a package
// directory.
func CountDir(dir string) (int, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return 0, err
	}
	var files []string
	for _, m := range matches {
		if filepath.Ext(m) == ".go" && !isTestFile(m) {
			files = append(files, m)
		}
	}
	return CountStatements(files)
}

func isTestFile(path string) bool {
	base := filepath.Base(path)
	return len(base) > 8 && base[len(base)-8:] == "_test.go"
}

// Toolkit layer groupings, mirroring the paper's accounting:
// "the symbolic system call and lower levels" vs the descriptor, open
// object, pathname and directory levels used by the union agent.

func corePath(names ...string) []string {
	dir := filepath.Join(repoRoot(), "internal", "core")
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = filepath.Join(dir, n)
	}
	return out
}

// SymbolicLevelFiles are the symbolic system call layer and everything
// below it, including the interest set the numeric layer embeds.
func SymbolicLevelFiles() []string {
	files := corePath("doc.go", "boilerplate.go", "numeric.go", "symbolic.go", "defaults.go", "exec.go")
	return append(files, filepath.Join(repoRoot(), "internal", "sys", "interest.go"))
}

// ObjectLevelFiles are the additional descriptor, open object, pathname
// and directory layers.
func ObjectLevelFiles() []string {
	return corePath("descriptor.go", "openobj.go", "pathname.go", "directory.go", "downutil.go")
}

// Table31Row is one agent's code-size accounting.
type Table31Row struct {
	Agent    string
	Toolkit  int
	Specific int
	Total    int
}

// RunTable31 computes the agent size table.
func RunTable31() ([]Table31Row, error) {
	symbolic, err := CountStatements(SymbolicLevelFiles())
	if err != nil {
		return nil, err
	}
	object, err := CountStatements(ObjectLevelFiles())
	if err != nil {
		return nil, err
	}
	agentsDir := filepath.Join(repoRoot(), "internal", "agents")
	rows := []Table31Row{}
	for _, a := range []struct {
		name    string
		toolkit int
	}{
		{"timex", symbolic},
		{"trace", symbolic},
		{"union", symbolic + object},
	} {
		specific, err := CountDir(filepath.Join(agentsDir, a.name))
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table31Row{
			Agent:    a.name,
			Toolkit:  a.toolkit,
			Specific: specific,
			Total:    a.toolkit + specific,
		})
	}
	return rows, nil
}

// DFSTraceSizes compares the statement counts of the two tracing
// implementations (the paper's "1627 vs 1584 statements" observation).
// The kernel-based implementation is the tracer plumbing (tracer.go) plus
// every hook call site scattered through the kernel's system call
// implementations — the analog of the original's "modification of 26
// kernel files ... under conditional compilation switches".
func DFSTraceSizes() (kernelImpl, agentImpl int, err error) {
	kernelImpl, err = CountStatements([]string{
		filepath.Join(repoRoot(), "internal", "kernel", "tracer.go"),
	})
	if err != nil {
		return 0, 0, err
	}
	hooks, err := CountKernelTraceHooks()
	if err != nil {
		return 0, 0, err
	}
	kernelImpl += hooks
	agentImpl, err = CountDir(filepath.Join(repoRoot(), "internal", "agents", "dfstrace"))
	return kernelImpl, agentImpl, err
}

// CountKernelTraceHooks counts the k.trace(...) hook call sites inserted
// into the kernel's system call implementations.
func CountKernelTraceHooks() (int, error) {
	matches, err := filepath.Glob(filepath.Join(repoRoot(), "internal", "kernel", "*.go"))
	if err != nil {
		return 0, err
	}
	fset := token.NewFileSet()
	hooks := 0
	for _, m := range matches {
		if isTestFile(m) || filepath.Base(m) == "tracer.go" {
			continue
		}
		parsed, err := parser.ParseFile(fset, m, nil, 0)
		if err != nil {
			return 0, err
		}
		ast.Inspect(parsed, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if ok && sel.Sel.Name == "trace" {
				hooks++
			}
			return true
		})
	}
	return hooks, nil
}
