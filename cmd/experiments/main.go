// Command experiments regenerates the tables and figures of the paper's
// evaluation section on scaled-down instances (see README.md and PAPER.md
// for the scaling substitutions).
//
// Usage:
//
//	experiments -list
//	experiments -exp table1
//	experiments -exp all -scale quick
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/paper-repro/pdsat-go/internal/cluster"
	"github.com/paper-repro/pdsat-go/internal/expts"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run runs the command on args under ctx, writes its report to stdout, and
// returns its exit status: 0, 1 when an experiment fails, 2 on a bad flag.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		expID     = fs.String("exp", "all", "experiment id (see -list) or \"all\"")
		scaleName = fs.String("scale", "default", "experiment scale: quick, default or paper")
		list      = fs.Bool("list", false, "list available experiments and exit")
		timeout   = fs.Duration("timeout", 0, "overall wall-clock limit (0 = none)")
	)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if err := experiments(ctx, *expID, *scaleName, *list, stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "experiments: %v\n", err)
		return 1
	}
	return 0
}

// experiments lists the registry, or runs the selected experiments at the
// named scale and writes their tables.
func experiments(ctx context.Context, expID, scaleName string, list bool, stdout, stderr io.Writer) error {
	if list {
		fmt.Fprintf(stdout, "%-15s %-22s %s\n", "ID", "PAPER ARTEFACT", "DESCRIPTION")
		for _, e := range expts.Experiments() {
			fmt.Fprintf(stdout, "%-15s %-22s %s\n", e.ID, e.Paper, e.Description)
		}
		return nil
	}

	var scale expts.Scale
	switch scaleName {
	case "quick":
		scale = expts.QuickScale()
	case "default", "laptop":
		scale = expts.DefaultScale()
	case "paper":
		scale = expts.PaperScale()
		fmt.Fprintln(stderr, "warning: the paper scale reproduces the original cluster-sized experiments and will not finish on a workstation")
	default:
		return fmt.Errorf("unknown scale %q", scaleName)
	}

	var selected []expts.Experiment
	if expID == "all" {
		selected = expts.Experiments()
	} else {
		e, err := expts.FindExperiment(expID)
		if err != nil {
			return err
		}
		selected = []expts.Experiment{e}
	}

	for _, e := range selected {
		fmt.Fprintf(stdout, "### %s (%s) — scale %q\n\n", e.ID, e.Paper, scale.Name)
		start := time.Now()
		tables, err := e.Run(ctx, scale)
		// On Ctrl-C (or -timeout) still print whatever the experiment
		// produced before the interrupt, then stop cleanly: a partial
		// report beats a bare error after minutes of computation.
		interrupted := err != nil && cluster.IsInterruption(err)
		if err != nil && !interrupted {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		for _, t := range tables {
			if err := t.Write(stdout); err != nil {
				return err
			}
		}
		if interrupted {
			fmt.Fprintf(stdout, "(%s interrupted after %v — results above are partial)\n\n",
				e.ID, time.Since(start).Round(time.Millisecond))
			return nil
		}
		fmt.Fprintf(stdout, "(%s finished in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
