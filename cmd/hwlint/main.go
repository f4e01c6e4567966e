// Command hwlint runs the project's static analyzers over the module:
// the concurrency-discipline rules of internal/analysis (lockorder,
// callbacklock, maprange, atomics) plus the interprocedural gate
// allocbudget. It exits non-zero when any finding
// survives the //hwlint:allow annotations, including malformed or
// stale annotations themselves.
//
// Usage:
//
//	go run ./cmd/hwlint [-json|-github] [packages]
//
// Packages default to ./... relative to the current directory. The
// loader shells out to `go list -export`, so the go tool must be on
// PATH (it is wherever this builds). -json prints one JSON object per
// finding (file/line/col/rule/message) for tooling; -github prints
// GitHub Actions workflow commands so findings annotate the PR diff.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"hwtwbg/internal/analysis"
)

func main() {
	jsonOut := flag.Bool("json", false, "print findings as JSON, one object per line")
	githubOut := flag.Bool("github", false, "print findings as GitHub Actions ::error commands")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: hwlint [-json|-github] [packages]\n\nrules:\n")
		for _, a := range analysis.All {
			fmt.Fprintf(os.Stderr, "  %-14s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hwlint:", err)
		os.Exit(2)
	}
	diags := analysis.Run(pkgs, analysis.All)
	enc := json.NewEncoder(os.Stdout)
	for _, d := range diags {
		switch {
		case *jsonOut:
			enc.Encode(struct {
				File    string `json:"file"`
				Line    int    `json:"line"`
				Col     int    `json:"col"`
				Rule    string `json:"rule"`
				Message string `json:"message"`
			}{d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message})
		case *githubOut:
			// https://docs.github.com/actions/reference/workflow-commands:
			// the message part %-encodes newlines and the data part's
			// metadata delimiters; file paths must be workspace-relative
			// for the annotation to attach to the diff.
			fmt.Printf("::error file=%s,line=%d,col=%d::%s\n",
				relPath(d.Pos.Filename), d.Pos.Line, d.Pos.Column, escapeGithub("["+d.Rule+"] "+d.Message))
		default:
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "hwlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// escapeGithub encodes a workflow-command message per the Actions
// toolkit's escaping rules.
func escapeGithub(s string) string {
	return strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A").Replace(s)
}

// relPath renders a position's file relative to the working directory
// when possible (GitHub resolves annotation paths against the
// workspace root, which is where CI invokes hwlint).
func relPath(name string) string {
	wd, err := os.Getwd()
	if err != nil {
		return name
	}
	rel, err := filepath.Rel(wd, name)
	if err != nil || strings.HasPrefix(rel, "..") {
		return name
	}
	return rel
}
