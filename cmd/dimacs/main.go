// Command dimacs is a standalone CDCL SAT solver for DIMACS CNF files, built
// on the library's solver package.  It prints the conventional "s
// SATISFIABLE / s UNSATISFIABLE" result line, optionally the model, and the
// search statistics, and exits 10 on SAT, 20 on UNSAT and 0 when a limit
// stopped it first.
//
// Usage:
//
//	dimacs [flags] [file.cnf]
//
// With no file argument the formula is read from standard input.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/paper-repro/pdsat-go/internal/cnf"
	"github.com/paper-repro/pdsat-go/internal/solver"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run runs the command on args and the streams and returns its exit status.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dimacs", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		maxConflicts = fs.Uint64("max-conflicts", 0, "stop after this many conflicts (0 = unlimited)")
		maxTime      = fs.Duration("max-time", 0, "stop after this wall-clock duration (0 = unlimited)")
		printModel   = fs.Bool("model", true, "print the satisfying assignment")
		verify       = fs.Bool("verify", true, "verify the model against the formula before printing")
		quiet        = fs.Bool("quiet", false, "suppress statistics")
	)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}

	var formula *cnf.Formula
	var err error
	switch fs.NArg() {
	case 0:
		formula, err = cnf.ParseDIMACS(stdin)
	case 1:
		formula, err = cnf.ParseDIMACSFile(fs.Arg(0))
	default:
		fmt.Fprintln(stderr, "usage: dimacs [flags] [file.cnf]")
		return 2
	}
	if err != nil {
		fmt.Fprintf(stderr, "dimacs: %v\n", err)
		return 2
	}

	s := solver.NewDefault(formula)
	s.SetBudget(solver.Budget{MaxConflicts: *maxConflicts})
	// The interrupt stays set until a Reset, so a timer that fires before
	// Solve begins still stops it.
	if *maxTime > 0 {
		defer time.AfterFunc(*maxTime, s.Interrupt).Stop()
	}
	res := s.Solve()

	if !*quiet {
		fmt.Fprintf(stdout, "c variables    %d\n", formula.NumVars)
		fmt.Fprintf(stdout, "c clauses      %d\n", formula.NumClauses())
		fmt.Fprintf(stdout, "c conflicts    %d\n", res.Stats.Conflicts)
		fmt.Fprintf(stdout, "c decisions    %d\n", res.Stats.Decisions)
		fmt.Fprintf(stdout, "c propagations %d\n", res.Stats.Propagations)
		fmt.Fprintf(stdout, "c restarts     %d\n", res.Stats.Restarts)
		fmt.Fprintf(stdout, "c learned      %d\n", res.Stats.Learned)
		fmt.Fprintf(stdout, "c time         %v\n", res.Stats.SolveTime)
	}

	switch res.Status {
	case solver.Sat:
		if *verify && !formula.IsSatisfiedBy(res.Model) {
			fmt.Fprintln(stderr, "dimacs: internal error: reported model does not satisfy the formula")
			return 1
		}
		fmt.Fprintln(stdout, "s SATISFIABLE")
		if *printModel {
			printAssignment(stdout, res.Model, formula.NumVars)
		}
		return 10
	case solver.Unsat:
		fmt.Fprintln(stdout, "s UNSATISFIABLE")
		return 20
	default:
		fmt.Fprintln(stdout, "s UNKNOWN")
		return 0
	}
}

func printAssignment(w io.Writer, model cnf.Assignment, numVars int) {
	fmt.Fprint(w, "v")
	for v := cnf.Var(1); int(v) <= numVars; v++ {
		lit := int(v)
		if model.Value(v) != cnf.True {
			lit = -lit
		}
		fmt.Fprintf(w, " %d", lit)
	}
	fmt.Fprintln(w, " 0")
}
