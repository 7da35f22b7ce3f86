package main

import (
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"sti/internal/ast2ram"
	"sti/internal/parser"
	"sti/internal/ram"
	"sti/internal/ram/verify"
	"sti/internal/ramopt"
	"sti/internal/sema"
	"sti/internal/symtab"
)

// cmdVet parses, analyzes, translates, and optimizes one or more Datalog
// programs and runs the RAM verifier after the translation and again after
// the optimizer — without executing anything. It accepts .dl files, Go
// files with embedded Datalog (backtick literals containing ".decl", the
// examples/ convention), and directories, which are walked for both. A
// trailing /... on a directory is accepted and ignored, matching go tool
// path spelling.
//
// Vet shares the findings pipeline with sti lint: frontend errors and
// verifier diagnostics print as path-located findings (or a JSON array
// with -json), exit code 0 means clean, 1 means findings, 2 means an
// internal error such as an unreadable path.
func cmdVet(args []string) {
	fs := flag.NewFlagSet("vet", flag.ExitOnError)
	verbose := fs.Bool("v", false, "report every checked program, not only failures")
	jsonOut := fs.Bool("json", false, "print findings as a JSON array on stdout")
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: sti vet [-v] [-json] path...   (\".dl\" files, Go files with embedded programs, or directories)")
		fs.PrintDefaults()
		os.Exit(2)
	}
	sources, err := collectSources(fs.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "sti:", err)
		os.Exit(2)
	}
	if len(sources) == 0 {
		fmt.Fprintf(os.Stderr, "sti: vet: no Datalog programs found under %s\n", strings.Join(fs.Args(), " "))
		os.Exit(2)
	}
	var all []finding
	for _, src := range sources {
		fnds := vetOne(src)
		if len(fnds) == 0 && *verbose && !*jsonOut {
			fmt.Printf("%s: ok\n", src.name)
		}
		all = append(all, fnds...)
	}
	os.Exit(reportFindings(all, *jsonOut))
}

type vetSource struct {
	name string // path, plus #n for multi-program files
	text string
}

// vetOne runs one program through the frontend and the verifier, then
// through the RAM optimizer and the verifier again.
//
// Named exception to "sti.Parse is the only code that chains the stages":
// vet attributes each verifier diagnostic to the stage that produced the
// ill-formed program (translate vs optimize), so it must stop between them.
// It runs the pass set sti.Parse runs, so it checks the program that runs.
func vetOne(src vetSource) []finding {
	astProg, err := parser.Parse(src.text)
	if err != nil {
		return []finding{frontendFinding(src, err)}
	}
	semProg, errs := sema.Analyze(astProg)
	if len(errs) > 0 {
		return []finding{frontendFinding(src, errs[0])}
	}
	st := symtab.New()
	prog, err := ast2ram.Translate(semProg, st)
	if err != nil {
		return []finding{frontendFinding(src, err)}
	}
	out := collectDiags(prog, src.name, "translate")
	if len(out) == 0 {
		ramopt.Optimize(prog, st, ramopt.Queryable())
		out = append(out, collectDiags(prog, src.name, "optimize")...)
	}
	return out
}

func collectDiags(prog *ram.Program, path, stage string) []finding {
	var out []finding
	for _, d := range verify.Program(prog) {
		out = append(out, finding{
			Path:     path,
			Code:     d.Rule,
			Severity: "error",
			Msg:      stage + ": " + d.Msg,
			Excerpt:  verify.Excerpt(prog, d),
		})
	}
	return out
}

// collectSources expands the argument list into Datalog program texts.
func collectSources(args []string) ([]vetSource, error) {
	var out []vetSource
	for _, arg := range args {
		arg = strings.TrimSuffix(strings.TrimSuffix(arg, "..."), string(filepath.Separator)+"...")
		arg = strings.TrimSuffix(arg, "/...")
		info, err := os.Stat(arg)
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			srcs, err := fileSources(arg)
			if err != nil {
				return nil, err
			}
			out = append(out, srcs...)
			continue
		}
		err = filepath.WalkDir(arg, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			switch filepath.Ext(path) {
			case ".dl", ".go":
				srcs, err := fileSources(path)
				if err != nil {
					return err
				}
				out = append(out, srcs...)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// fileSources reads one file: a .dl file is one program; a Go file yields
// every backtick raw string literal containing ".decl". Go files without
// embedded programs are skipped silently so directories can be walked.
func fileSources(path string) ([]vetSource, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if filepath.Ext(path) != ".go" {
		return []vetSource{{name: path, text: string(data)}}, nil
	}
	// Raw string literals cannot contain backticks, so splitting on them
	// alternates code and literal contents exactly.
	parts := strings.Split(string(data), "`")
	var out []vetSource
	for i := 1; i < len(parts); i += 2 {
		if !strings.Contains(parts[i], ".decl") {
			continue
		}
		name := path
		if len(out) > 0 || strings.Count(string(data), ".decl") > strings.Count(parts[i], ".decl") {
			name = fmt.Sprintf("%s#%d", path, len(out))
		}
		out = append(out, vetSource{name: name, text: parts[i]})
	}
	return out, nil
}

func indentLines(s, prefix string) string {
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimRight(s, "\n"), "\n") {
		b.WriteString(prefix)
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}
