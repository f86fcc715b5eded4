package main

import (
	"bytes"
	"strings"
	"testing"

	"github.com/paper-repro/pdsat-go/internal/expts"
)

// experimentsCmd runs the command on the arguments and returns its exit
// status, standard output and standard error.
func experimentsCmd(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(t.Context(), args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestListNamesEveryExperiment: -list prints a line for every registry
// entry, starting with its ID, and exits 0 without running any.
func TestListNamesEveryExperiment(t *testing.T) {
	code, out, _ := experimentsCmd(t, "-list")
	if code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != len(expts.Experiments())+1 {
		t.Fatalf("-list printed %d lines for %d experiments:\n%s", len(lines), len(expts.Experiments()), out)
	}
	for i, e := range expts.Experiments() {
		if !strings.HasPrefix(lines[i+1], e.ID+" ") {
			t.Errorf("line %d is %q, want experiment %s", i+1, lines[i+1], e.ID)
		}
	}
}

// TestUnknownScaleFails: a scale the command does not know exits non-zero
// and names it, before any experiment runs; an unknown flag exits 2.
func TestUnknownScaleFails(t *testing.T) {
	code, out, errOut := experimentsCmd(t, "-scale", "huge", "-exp", "mc-convergence")
	if code == 0 || out != "" || !strings.Contains(errOut, `unknown scale "huge"`) {
		t.Fatalf("-scale huge exited %d with stdout %q and stderr %q", code, out, errOut)
	}
	if code, _, _ := experimentsCmd(t, "-bogus"); code != 2 {
		t.Fatalf("an unknown flag exited %d, want 2", code)
	}
}

// TestQuickConvergencePrintsItsTable runs the Monte Carlo convergence
// experiment at the quick scale (well under a second): its header, its table
// with a row for each sample size, the exact family cost and the closing
// line.
func TestQuickConvergencePrintsItsTable(t *testing.T) {
	code, out, errOut := experimentsCmd(t, "-exp", "mc-convergence", "-scale", "quick")
	if code != 0 {
		t.Fatalf("exited %d: %s", code, errOut)
	}
	for _, want := range []string{
		`### mc-convergence (Section 2 (eq. 2/3)) — scale "quick"`,
		"Monte Carlo convergence",
		"95% interval contains exact",
		"\n10 ", "\n30 ", "\n100 ",
		"note: exact total cost of the 2^10 family",
		"(mc-convergence finished in ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}
