// Command repolint enforces repository-wide invariants that go vet
// cannot express. It is stdlib-only (go/parser + go/types +
// go/importer) and runs as the "lint" gate of make ci.
//
// Checks:
//
//  1. atomics: "sync/atomic" may be imported only inside internal/obs
//     (the designated home for lock-free telemetry primitives) or in
//     files explicitly whitelisted below with a justification. Ad-hoc
//     atomics scattered through the tree are how torn counters and
//     unpublishable metrics happen; new concurrency primitives should
//     either live in internal/obs or argue their way onto the list.
//
//  2. hooks: the obs hook bundles (*obs.SearchHooks,
//     *obs.RestartHooks) are nil when instrumentation is disabled,
//     which is the common case. Their metric-handle fields may
//     therefore only be selected through a local variable that the
//     enclosing function provably guards: either compared against nil
//     (`h == nil` / `h != nil`) somewhere in the function, or
//     assigned from an address-of-composite-literal / new(...). Any
//     other field selection — in particular chained ones like
//     `r.cfg.Obs.Passes.Inc()` — is reported, enforcing the
//     rebind-then-check idiom the hot paths use. Package internal/obs
//     itself is exempt: that is where the nil-safe wrappers live.
//
//  3. eval: direct calls to the per-case evaluator
//     (*prog.Program).Eval are confined to internal/prog (its home and
//     the reference engine prog.RefEval), internal/cost (Of and
//     Solves), internal/prog/analysis (constant folding over concrete
//     values) and internal/mutate (the merge move's probe when no
//     engine is bound). Everything else must evaluate through the plan
//     engine (plan.State) or the cost layer, so the engine stays the
//     single hot-path door and its reuse telemetry stays honest. Test
//     files are exempt: differential tests deliberately compare the
//     engine against Program.Eval.
//
//  4. rules: every internal/prog/analysis Rule composite literal must
//     carry a literal, unique Name string. The name is the join key
//     between the simplifier, the lints, eqsat's rewrite engine, and
//     the severity table; a duplicate would silently shadow a rule in
//     any consumer that indexes by name. Loop-built or computed names
//     defeat the static check and are reported outright.
//
//  5. absint: every prog.Op constant must appear as an explicit key in
//     BOTH abstract-domain transfer tables of
//     internal/prog/analysis/absint (the known-bits table, element
//     type BitsTransfer, and the interval table, element type
//     SpanTransfer). The tables are [prog.NumOps]-indexed arrays, so a
//     missing entry is a nil function that panics only when the new
//     opcode is first analyzed; ops with no useful transfer must
//     register ⊤ (topB/topS) deliberately. The check classifies table
//     literals by element signature, so renaming the variables cannot
//     silently retire it.
//
//  6. plan: every prog.Op constant must appear as an explicit key in
//     the plan compiler's fusion table (internal/prog/plan, the
//     [prog.NumOps]Kernels array). As with check 5, a missing row is a
//     nil kernel that panics only when the opcode is first compiled;
//     pseudo-ops and ops lowered through the generic fill/copy kernels
//     must take the zero Kernels row deliberately. A Kernels table of
//     assembly functions (the AVX-512 table) must be total as well,
//     with each row serving exactly its scalar row's forms; only the
//     pseudo-ops may fall back to scalar.
//     Tables are again classified by element signature and content,
//     not variable name. Both tables are now generated from the
//     per-opcode rows of cmd/genkernels; the check stays, as the guard
//     on what the generator writes.
//
// Usage:
//
//	repolint [-dir module-root]
//
// Exit status is 1 if any finding is reported, 2 on operational
// errors (unparseable files, type-check failures).
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// atomicWhitelist lists files (module-relative, slash-separated)
// allowed to import sync/atomic outside internal/obs, each with the
// reason it needs raw atomics.
var atomicWhitelist = map[string]string{
	"internal/search/search.go":       "lock-free published-snapshot pointer so readers never block the search loop",
	"internal/server/server.go":       "busy-worker gauge and monotonic job-id allocation",
	"internal/restart/cancel_test.go": "test-only: cross-goroutine progress probe for cancellation timing",
}

func main() {
	dir := flag.String("dir", ".", "module root to lint (directory containing go.mod)")
	flag.Parse()
	n, err := run(*dir, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "repolint:", err)
		os.Exit(2)
	}
	if n > 0 {
		fmt.Fprintf(os.Stdout, "repolint: %d finding(s)\n", n)
		os.Exit(1)
	}
}

// run lints the module rooted at dir, writing findings to out, and
// returns the number of findings.
func run(dir string, out io.Writer) (int, error) {
	modPath, err := modulePath(filepath.Join(dir, "go.mod"))
	if err != nil {
		return 0, err
	}
	pkgs, err := collectPackages(dir)
	if err != nil {
		return 0, err
	}

	var findings []string
	fset := token.NewFileSet()

	// Check 1: sync/atomic containment. Syntactic, covers every file
	// including tests.
	for _, p := range pkgs {
		for _, file := range p.allFiles {
			f, err := parser.ParseFile(fset, file, nil, parser.ImportsOnly)
			if err != nil {
				return 0, err
			}
			for _, imp := range f.Imports {
				if strings.Trim(imp.Path.Value, `"`) != "sync/atomic" {
					continue
				}
				rel := relPath(dir, file)
				if strings.HasPrefix(rel, "internal/obs/") {
					continue
				}
				if _, ok := atomicWhitelist[rel]; ok {
					continue
				}
				findings = append(findings, fmt.Sprintf(
					"%s: imports sync/atomic outside internal/obs; use the obs primitives or whitelist the file in cmd/repolint with a justification",
					fset.Position(imp.Pos())))
			}
		}
	}

	// Check 2: nil-guarded obs hook access. Type-based, non-test files
	// only (the hot paths under scrutiny are not in tests).
	ld := &loader{
		fset:    fset,
		dir:     dir,
		modPath: modPath,
		dirs:    map[string]*pkgDir{},
		typed:   map[string]*typedPkg{},
		std:     importer.Default(),
	}
	for _, p := range pkgs {
		ld.dirs[p.importPath] = p
	}
	ruleNames := map[string][]string{}
	for _, p := range pkgs {
		if len(p.goFiles) == 0 {
			continue
		}
		tp, err := ld.load(p.importPath)
		if err != nil {
			return 0, fmt.Errorf("type-checking %s: %w", p.importPath, err)
		}
		findings = append(findings, checkEvalContainment(fset, tp, modPath, p.importPath)...)
		findings = append(findings, collectRuleNames(fset, tp, modPath, ruleNames)...)
		if p.importPath == modPath+"/internal/prog/analysis/absint" {
			fs, err := checkAbsintTables(ld, tp, modPath)
			if err != nil {
				return 0, err
			}
			findings = append(findings, fs...)
		}
		if p.importPath == modPath+"/internal/prog/plan" {
			fs, err := checkPlanTable(ld, tp, modPath)
			if err != nil {
				return 0, err
			}
			findings = append(findings, fs...)
		}
		if p.importPath == modPath+"/internal/obs" {
			continue // home of the nil-safe wrappers
		}
		findings = append(findings, checkHookAccess(fset, tp, modPath)...)
	}

	// Check 4 (second half): duplicate rule names, across every package
	// that builds a Rule literal.
	for name, positions := range ruleNames {
		if len(positions) > 1 {
			sort.Strings(positions)
			findings = append(findings, fmt.Sprintf(
				"%s: analysis.Rule name %q also declared at %s; rule names must be unique (they key the simplifier, lints, and eqsat)",
				positions[0], name, strings.Join(positions[1:], ", ")))
		}
	}

	sort.Strings(findings)
	for _, f := range findings {
		fmt.Fprintln(out, f)
	}
	return len(findings), nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("%s: no module directive", gomod)
}

// pkgDir is one directory of Go files within the module.
type pkgDir struct {
	importPath string
	goFiles    []string // non-test files, sorted
	allFiles   []string // including _test.go, sorted
}

// collectPackages walks the module and lists its package directories.
func collectPackages(root string) ([]*pkgDir, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	byDir := map[string]*pkgDir{}
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		dir := filepath.Dir(path)
		p := byDir[dir]
		if p == nil {
			rel := relPath(root, dir)
			ip := modPath
			if rel != "." {
				ip = modPath + "/" + rel
			}
			p = &pkgDir{importPath: ip}
			byDir[dir] = p
		}
		p.allFiles = append(p.allFiles, path)
		if !strings.HasSuffix(path, "_test.go") {
			p.goFiles = append(p.goFiles, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var pkgs []*pkgDir
	for _, p := range byDir {
		sort.Strings(p.goFiles)
		sort.Strings(p.allFiles)
		pkgs = append(pkgs, p)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].importPath < pkgs[j].importPath })
	return pkgs, nil
}

func relPath(root, path string) string {
	rel, err := filepath.Rel(root, path)
	if err != nil {
		return path
	}
	return filepath.ToSlash(rel)
}

// typedPkg is a type-checked package with the syntax and type info
// the hooks check walks.
type typedPkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// loader type-checks module packages from source, resolving
// module-internal imports recursively and everything else through the
// default (compiler export data) importer.
type loader struct {
	fset    *token.FileSet
	dir     string
	modPath string
	dirs    map[string]*pkgDir
	typed   map[string]*typedPkg
	std     types.Importer
}

func (l *loader) load(importPath string) (*typedPkg, error) {
	if tp, ok := l.typed[importPath]; ok {
		if tp == nil {
			return nil, fmt.Errorf("import cycle through %s", importPath)
		}
		return tp, nil
	}
	p, ok := l.dirs[importPath]
	if !ok {
		return nil, fmt.Errorf("unknown module package %s", importPath)
	}
	l.typed[importPath] = nil // cycle marker
	var files []*ast.File
	for _, file := range p.goFiles {
		f, err := parser.ParseFile(l.fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
			tp, err := l.load(path)
			if err != nil {
				return nil, err
			}
			return tp.pkg, nil
		}
		return l.std.Import(path)
	})}
	pkg, err := conf.Check(importPath, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	tp := &typedPkg{pkg: pkg, files: files, info: info}
	l.typed[importPath] = tp
	return tp, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// collectRuleNames records the position of every analysis.Rule
// composite literal's Name into names (keyed by the name string) and
// reports literals whose Name is missing or not a plain string literal
// — those defeat the static duplicate check. Test files are not loaded
// by the type-checker, so test-local Rule literals are exempt.
func collectRuleNames(fset *token.FileSet, tp *typedPkg, modPath string, names map[string][]string) []string {
	var findings []string
	rulePath := modPath + "/internal/prog/analysis"
	for _, f := range tp.files {
		ast.Inspect(f, func(n ast.Node) bool {
			cl, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			tv, ok := tp.info.Types[cl]
			if !ok {
				return true
			}
			named, ok := tv.Type.(*types.Named)
			if !ok {
				return true
			}
			obj := named.Obj()
			if obj.Name() != "Rule" || obj.Pkg() == nil || obj.Pkg().Path() != rulePath {
				return true
			}
			pos := fset.Position(cl.Pos()).String()
			for _, el := range cl.Elts {
				kv, ok := el.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				if key, ok := kv.Key.(*ast.Ident); !ok || key.Name != "Name" {
					continue
				}
				lit, ok := kv.Value.(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					findings = append(findings, fmt.Sprintf(
						"%s: analysis.Rule Name must be a literal string (computed names defeat the duplicate check)", pos))
					return true
				}
				name, err := strconv.Unquote(lit.Value)
				if err != nil {
					return true // unreachable on type-checked source
				}
				names[name] = append(names[name], pos)
				return true
			}
			findings = append(findings, fmt.Sprintf(
				"%s: analysis.Rule literal without a Name field", pos))
			return true
		})
	}
	return findings
}

// checkHookAccess reports unguarded field selections through the
// possibly-nil obs hook bundle pointers.
func checkHookAccess(fset *token.FileSet, tp *typedPkg, modPath string) []string {
	var findings []string
	isHookPtr := func(t types.Type) bool {
		ptr, ok := t.(*types.Pointer)
		if !ok {
			return false
		}
		named, ok := ptr.Elem().(*types.Named)
		if !ok {
			return false
		}
		obj := named.Obj()
		if obj.Pkg() == nil || obj.Pkg().Path() != modPath+"/internal/obs" {
			return false
		}
		return obj.Name() == "SearchHooks" || obj.Name() == "RestartHooks"
	}
	info := tp.info
	for _, file := range tp.files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			// Pass 1: identifiers of hook pointer type the function
			// proves non-nil — compared against nil anywhere, or bound
			// to a freshly allocated bundle.
			guarded := map[types.Object]bool{}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.BinaryExpr:
					if n.Op != token.EQL && n.Op != token.NEQ {
						return true
					}
					for _, pair := range [2][2]ast.Expr{{n.X, n.Y}, {n.Y, n.X}} {
						if !isNilIdent(info, pair[1]) {
							continue
						}
						if id, ok := pair[0].(*ast.Ident); ok && isHookPtr(info.TypeOf(id)) {
							if obj := info.ObjectOf(id); obj != nil {
								guarded[obj] = true
							}
						}
					}
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						if i >= len(n.Rhs) {
							break
						}
						id, ok := lhs.(*ast.Ident)
						if !ok || !isHookPtr(info.TypeOf(id)) || !isFreshAlloc(n.Rhs[i]) {
							continue
						}
						if obj := info.ObjectOf(id); obj != nil {
							guarded[obj] = true
						}
					}
				}
				return true
			})
			// Pass 2: flag unguarded field selections.
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				se, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				sel := info.Selections[se]
				if sel == nil || sel.Kind() != types.FieldVal || !isHookPtr(info.TypeOf(se.X)) {
					return true
				}
				if id, ok := se.X.(*ast.Ident); ok {
					if obj := info.ObjectOf(id); obj != nil && guarded[obj] {
						return true
					}
				}
				findings = append(findings, fmt.Sprintf(
					"%s: field %s selected through possibly-nil *obs.%s; rebind to a local and nil-check it first",
					fset.Position(se.Sel.Pos()), se.Sel.Name, hookName(info.TypeOf(se.X))))
				return true
			})
		}
	}
	return findings
}

// evalAllowed lists packages (module-relative import suffixes) that
// may call (*prog.Program).Eval directly; everything else goes
// through the incremental engine or the cost layer.
var evalAllowed = map[string]bool{
	"internal/prog":          true, // home of the evaluator and of RefEval
	"internal/cost":          true, // Of, Solves
	"internal/prog/analysis": true, // constant folding over concrete values
	"internal/mutate":        true, // merge probe when no engine is bound
}

// checkEvalContainment reports calls to (*prog.Program).Eval from
// packages outside evalAllowed. Only non-test files are loaded into tp,
// so differential tests comparing the engine against Program.Eval are
// exempt by construction.
func checkEvalContainment(fset *token.FileSet, tp *typedPkg, modPath, importPath string) []string {
	rel := strings.TrimPrefix(importPath, modPath+"/")
	progPath := modPath + "/internal/prog"
	var findings []string
	info := tp.info
	isProgProgram := func(t types.Type) bool {
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok {
			return false
		}
		obj := named.Obj()
		return obj.Name() == "Program" && obj.Pkg() != nil && obj.Pkg().Path() == progPath
	}
	for _, file := range tp.files {
		ast.Inspect(file, func(n ast.Node) bool {
			se, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			sel := info.Selections[se]
			if sel != nil && sel.Kind() == types.MethodVal &&
				se.Sel.Name == "Eval" && isProgProgram(info.TypeOf(se.X)) {
				if !evalAllowed[rel] {
					findings = append(findings, fmt.Sprintf(
						"%s: direct (*prog.Program).Eval call outside its containment list; evaluate through plan.State or the cost layer (see cmd/repolint check 3)",
						fset.Position(se.Sel.Pos())))
				}
			}
			return true
		})
	}
	return findings
}

// opTable is one [...]Elem array composite literal keyed by prog.Op:
// the name of its element type, and for each opcode that appears as an
// explicit key, the names of the row's fields set to something other
// than nil (for struct rows; empty for other element types). asm
// reports whether some row value names a function declared without a
// body, i.e. one implemented in assembly.
type opTable struct {
	elem string
	rows map[string]map[string]bool
	asm  bool
}

// opKeyedTables is the shared machinery of the table-totality checks
// (5 and 6): it returns the sorted exported prog.Op constant names and
// every opcode-keyed array literal of tp whose element type is one of
// elems. Tables are identified by element signature, not by variable
// name, and keys are resolved through the type-checker, so neither
// renaming a table nor spelling a key through an alias evades a check
// built on this.
func opKeyedTables(ld *loader, tp *typedPkg, modPath string, elems ...string) ([]string, []opTable, error) {
	progPkg, err := ld.load(modPath + "/internal/prog")
	if err != nil {
		return nil, nil, err
	}
	isOp := func(t types.Type) bool {
		named, ok := t.(*types.Named)
		if !ok {
			return false
		}
		obj := named.Obj()
		return obj.Name() == "Op" && obj.Pkg() != nil && obj.Pkg().Path() == modPath+"/internal/prog"
	}
	var ops []string
	scope := progPkg.pkg.Scope()
	for _, name := range scope.Names() {
		if c, ok := scope.Lookup(name).(*types.Const); ok && c.Exported() && isOp(c.Type()) {
			ops = append(ops, name)
		}
	}
	sort.Strings(ops)

	// Functions declared without a body are implemented in assembly.
	bodiless := map[types.Object]bool{}
	for _, f := range tp.files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body == nil {
				bodiless[tp.info.Defs[fd.Name]] = true
			}
		}
	}
	wanted := map[string]bool{}
	for _, e := range elems {
		wanted[e] = true
	}
	var tables []opTable
	for _, f := range tp.files {
		ast.Inspect(f, func(n ast.Node) bool {
			cl, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			tv, ok := tp.info.Types[cl]
			if !ok {
				return true
			}
			arr, ok := tv.Type.Underlying().(*types.Array)
			if !ok {
				return true
			}
			elem, ok := arr.Elem().(*types.Named)
			if !ok {
				return true
			}
			en := elem.Obj().Name()
			if !wanted[en] {
				return true
			}
			tbl := opTable{elem: en, rows: map[string]map[string]bool{}}
			st, _ := elem.Underlying().(*types.Struct)
			for _, el := range cl.Elts {
				kv, ok := el.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				var id *ast.Ident
				switch k := kv.Key.(type) {
				case *ast.SelectorExpr:
					id = k.Sel
				case *ast.Ident:
					id = k
				default:
					continue
				}
				c, ok := tp.info.Uses[id].(*types.Const)
				if !ok || !isOp(c.Type()) {
					continue
				}
				fields := map[string]bool{}
				if row, ok := kv.Value.(*ast.CompositeLit); ok && st != nil {
					for i, fe := range row.Elts {
						name, val := "", fe
						if fkv, ok := fe.(*ast.KeyValueExpr); ok {
							if fid, ok := fkv.Key.(*ast.Ident); ok {
								name = fid.Name
							}
							val = fkv.Value
						} else if i < st.NumFields() {
							name = st.Field(i).Name()
						}
						if name == "" || isNilIdent(tp.info, val) {
							continue
						}
						fields[name] = true
						if vid, ok := val.(*ast.Ident); ok && bodiless[tp.info.Uses[vid]] {
							tbl.asm = true
						}
					}
				}
				tbl.rows[c.Name()] = fields
			}
			tables = append(tables, tbl)
			return true
		})
	}
	return ops, tables, nil
}

// checkAbsintTables enforces check 5: every prog.Op constant appears
// as an explicit key in both abstract-domain transfer tables (element
// types BitsTransfer and SpanTransfer).
func checkAbsintTables(ld *loader, tp *typedPkg, modPath string) ([]string, error) {
	ops, tables, err := opKeyedTables(ld, tp, modPath, "BitsTransfer", "SpanTransfer")
	if err != nil {
		return nil, err
	}
	var findings []string
	for _, elem := range []string{"BitsTransfer", "SpanTransfer"} {
		var keys map[string]bool
		for _, t := range tables {
			if t.elem != elem {
				continue
			}
			if keys == nil {
				keys = map[string]bool{}
			}
			for op := range t.rows {
				keys[op] = true
			}
		}
		if keys == nil {
			findings = append(findings, fmt.Sprintf(
				"internal/prog/analysis/absint: no transfer table with element type %s found (see cmd/repolint check 5)", elem))
			continue
		}
		for _, op := range ops {
			if !keys[op] {
				findings = append(findings, fmt.Sprintf(
					"internal/prog/analysis/absint: prog.%s missing from the %s table; every opcode needs an explicit entry in both domains (register topB/topS deliberately — see cmd/repolint check 5)",
					op, elem))
			}
		}
	}
	return findings, nil
}

// vectorScalarOps are the opcodes whose vector-table rows may leave
// forms nil and so fall back to the scalar kernels: the pseudo-ops,
// which compile through the fill and copy kernels.
var vectorScalarOps = map[string]bool{
	"OpInvalid": true, "OpInput": true, "OpConst": true,
}

// checkPlanTable enforces check 6 on the plan compiler's kernel tables
// (the [prog.NumOps]Kernels arrays of internal/prog/plan). A table
// whose kernels are Go functions is the scalar fusion table; one whose
// kernels are implemented in assembly is a vector table.
//
// Every prog.Op constant must appear as an explicit key in the scalar
// table. A missing row is a nil kernel that panics only when the new
// opcode is first compiled into a plan; ops with no kernels of their
// own (pseudo-ops, ops the compiler lowers through the fill/copy
// kernels) must take the zero Kernels row deliberately.
//
// A vector table must be total too, and each row must have exactly
// its scalar row's forms (VV, VI, IV): a missing form silently falls
// back to the scalar kernel, and an extra one has no reference. Only
// the rows of vectorScalarOps may leave forms nil.
func checkPlanTable(ld *loader, tp *typedPkg, modPath string) ([]string, error) {
	ops, tables, err := opKeyedTables(ld, tp, modPath, "Kernels")
	if err != nil {
		return nil, err
	}
	var findings []string
	var scalar map[string]map[string]bool
	for _, t := range tables {
		if t.asm {
			continue
		}
		if scalar == nil {
			scalar = map[string]map[string]bool{}
		}
		for op, f := range t.rows {
			scalar[op] = f
		}
	}
	if scalar == nil {
		findings = append(findings, fmt.Sprintf(
			"internal/prog/plan: no fusion table with element type Kernels found (see cmd/repolint check 6)"))
		return findings, nil
	}
	for _, op := range ops {
		if _, ok := scalar[op]; !ok {
			findings = append(findings, fmt.Sprintf(
				"internal/prog/plan: prog.%s missing from the Kernels fusion table; every opcode needs an explicit row (pseudo-ops take the zero row deliberately — see cmd/repolint check 6)",
				op))
		}
	}
	for _, t := range tables {
		if !t.asm {
			continue
		}
		for _, op := range ops {
			row, ok := t.rows[op]
			if !ok {
				findings = append(findings, fmt.Sprintf(
					"internal/prog/plan: prog.%s missing from the vector Kernels table; every opcode needs an explicit row (see cmd/repolint check 6)",
					op))
				continue
			}
			for _, form := range []string{"VV", "VI", "IV"} {
				switch {
				case scalar[op][form] && !row[form] && !vectorScalarOps[op]:
					findings = append(findings, fmt.Sprintf(
						"internal/prog/plan: prog.%s has no vector %s kernel, so that form falls back to scalar; only the pseudo-ops may (see cmd/repolint check 6)",
						op, form))
				case row[form] && !scalar[op][form]:
					findings = append(findings, fmt.Sprintf(
						"internal/prog/plan: prog.%s has a vector %s kernel but no scalar one to test it against (see cmd/repolint check 6)",
						op, form))
				}
			}
		}
	}
	return findings, nil
}

func hookName(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		if named, ok := ptr.Elem().(*types.Named); ok {
			return named.Obj().Name()
		}
	}
	return "Hooks"
}

// isNilIdent reports whether e is the predeclared nil.
func isNilIdent(info *types.Info, e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := info.ObjectOf(id).(*types.Nil)
	return isNil
}

// isFreshAlloc reports whether e evaluates to a pointer that cannot
// be nil: &T{...} or new(T).
func isFreshAlloc(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.UnaryExpr:
		if e.Op != token.AND {
			return false
		}
		_, isLit := e.X.(*ast.CompositeLit)
		return isLit
	case *ast.CallExpr:
		id, ok := e.Fun.(*ast.Ident)
		return ok && id.Name == "new"
	}
	return false
}
