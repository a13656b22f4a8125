// Command mpilint statically analyzes Go programs written against the
// mpi.Proc API for the usage errors the dynamic verifier otherwise has to
// catch at runtime: request leaks (R-leak), communicator leaks (C-leak),
// discarded MPI errors, send-buffer reuse, rank-conditional collectives,
// and an informational audit of every wildcard (AnySource/AnyTag) receive
// site.
//
// Usage:
//
//	mpilint [flags] [path ...]
//
// Each path is a package directory, a single .go file, or a pattern ending
// in /... that walks a tree; the default is ./...
//
//	mpilint ./...
//	mpilint -checks rleak,cleak ./workloads/...
//	mpilint -json ./examples/quickstart
//	mpilint -audit ./workloads/adlb
//	mpilint -graph graph.dot -graph-size 4 ./examples/...
//
// Diagnostics print as "file:line: [check] message". The exit code is 0
// when no failing (error-severity, non-suppressed) diagnostics were found,
// 1 when some were, and 2 on usage or load errors. Suppress a finding with
// a "//mpilint:ignore <check> -- reason" comment on or above its line.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"dampi/internal/commgraph"
	"dampi/internal/mpilint"
)

func main() {
	var (
		checksFlag = flag.String("checks", "", "comma-separated checks to run (default: all)")
		jsonFlag   = flag.Bool("json", false, "emit the full report as JSON")
		audit      = flag.Bool("audit", false, "also print the informational wildcard audit")
		suppressed = flag.Bool("suppressed", false, "also print suppressed diagnostics")
		tests      = flag.Bool("tests", false, "also analyze _test.go files")
		listChecks = flag.Bool("list-checks", false, "list the available checks and exit")
		graphOut   = flag.String("graph", "", "write the static communication graph of every program root to this file (Graphviz DOT; \"-\" for stdout)")
		graphSize  = flag.Int("graph-size", 4, "world size to instantiate -graph output at")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: mpilint [flags] [path ...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *listChecks {
		docs := mpilint.CheckDoc()
		names := mpilint.CheckNames()
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("%-9s %s\n", n, docs[n])
		}
		return
	}

	paths := flag.Args()
	if len(paths) == 0 {
		paths = []string{"./..."}
	}
	var checks []string
	if *checksFlag != "" {
		checks = strings.Split(*checksFlag, ",")
	}
	rep, err := mpilint.Run(paths, mpilint.Options{Checks: checks, IncludeTests: *tests})
	if err != nil {
		fmt.Fprintf(os.Stderr, "mpilint: %v\n", err)
		os.Exit(2)
	}

	if *graphOut != "" {
		if err := writeGraphs(*graphOut, *graphSize, paths, *tests); err != nil {
			fmt.Fprintf(os.Stderr, "mpilint: %v\n", err)
			os.Exit(2)
		}
	}

	if *jsonFlag {
		out, err := rep.JSON()
		if err != nil {
			fmt.Fprintf(os.Stderr, "mpilint: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("%s\n", out)
	} else {
		for _, d := range rep.Diags {
			if d.Suppressed && !*suppressed {
				continue
			}
			if d.Severity == mpilint.SevInfo && !*audit {
				continue
			}
			line := d.String()
			if d.Suppressed {
				line += " (suppressed)"
			}
			fmt.Println(line)
		}
	}
	if len(rep.Failing()) > 0 {
		os.Exit(1)
	}
}

// writeGraphs extracts every program root under paths and dumps its
// instantiated match graph as DOT (one graph per root; Graphviz treats a
// multi-graph stream as pages).
func writeGraphs(out string, size int, paths []string, tests bool) error {
	sums, err := mpilint.ProgramSummaries(paths, mpilint.Options{IncludeTests: tests})
	if err != nil {
		return err
	}
	w := os.Stdout
	if out != "-" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close() // on an early return; the Close below reports its error
		w = f
	}
	for _, sum := range sums {
		if !sum.Complete {
			fmt.Fprintf(os.Stderr, "mpilint: %s (%s:%d): summary incomplete, graph omitted: %s\n",
				sum.Name, sum.File, sum.Line, strings.Join(sum.Notes, "; "))
			continue
		}
		if err := commgraph.WriteDOT(w, sum.Instantiate(size)); err != nil {
			return err
		}
	}
	if w != os.Stdout {
		return w.Close()
	}
	return nil
}
