package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/paper-repro/pdsat-go/internal/cnf"
)

// pigeonhole is the formula "p pigeons fit into h holes, one per hole":
// satisfiable exactly when p ≤ h, and hard for CDCL when p = h+1 grows.
func pigeonhole(p, h int) *cnf.Formula {
	v := func(i, j int) cnf.Lit { return cnf.Lit(i*h + j + 1) }
	f := cnf.New(p * h)
	for i := 0; i < p; i++ {
		c := make(cnf.Clause, 0, h)
		for j := 0; j < h; j++ {
			c = append(c, v(i, j))
		}
		f.AddClause(c)
	}
	for j := 0; j < h; j++ {
		for i1 := 0; i1 < p; i1++ {
			for i2 := i1 + 1; i2 < p; i2++ {
				f.AddClauseLits(-v(i1, j), -v(i2, j))
			}
		}
	}
	return f
}

// dimacs runs the command on the arguments with the formula on standard
// input and returns its exit status and standard output.
func dimacs(t *testing.T, f *cnf.Formula, args ...string) (int, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, strings.NewReader(f.DIMACSString()), &stdout, &stderr)
	if stderr.Len() > 0 {
		t.Fatalf("dimacs %v wrote to stderr: %s", args, stderr.String())
	}
	return code, stdout.String()
}

// TestSatisfiablePrintsAModel: a satisfiable formula exits 10 with a "v … 0"
// line whose assignment satisfies it.
func TestSatisfiablePrintsAModel(t *testing.T) {
	f := pigeonhole(4, 4)
	code, out := dimacs(t, f, "-quiet")
	if code != 10 || !strings.HasPrefix(out, "s SATISFIABLE\n") {
		t.Fatalf("exit %d, output %q", code, out)
	}
	fields := strings.Fields(strings.TrimPrefix(out, "s SATISFIABLE\n"))
	if len(fields) != f.NumVars+2 || fields[0] != "v" || fields[len(fields)-1] != "0" {
		t.Fatalf("model line %q", fields)
	}
	model := cnf.NewAssignment(f.NumVars)
	for i, field := range fields[1 : len(fields)-1] {
		lit, err := strconv.Atoi(field)
		if err != nil || (lit != i+1 && lit != -(i+1)) {
			t.Fatalf("model entry %d is %q", i+1, field)
		}
		model[i+1] = cnf.False
		if lit > 0 {
			model[i+1] = cnf.True
		}
	}
	if !f.IsSatisfiedBy(model) {
		t.Fatalf("the printed model %q does not satisfy the formula", fields)
	}
}

// TestUnsatisfiableFromAFile: five pigeons in four holes, read from a file,
// exit 20.
func TestUnsatisfiableFromAFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "php.cnf")
	if err := os.WriteFile(path, []byte(pigeonhole(5, 4).DIMACSString()), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out := dimacs(t, cnf.New(0), path)
	if code != 20 || !strings.HasSuffix(out, "s UNSATISFIABLE\n") || !strings.Contains(out, "c conflicts") {
		t.Fatalf("exit %d, output %q", code, out)
	}
}

// TestTimeLimitInterrupts: -max-time interrupts a solve it does not let finish,
// which prints s UNKNOWN and exits 0.
func TestTimeLimitInterrupts(t *testing.T) {
	code, out := dimacs(t, pigeonhole(10, 9), "-quiet", "-max-time", "1ms")
	if code != 0 || out != "s UNKNOWN\n" {
		t.Fatalf("exit %d, output %q", code, out)
	}
}

// TestHelpExitsZero: -h prints the usage and exits 0, as the global flag set
// does; an unknown flag is a usage error, exit 2.
func TestHelpExitsZero(t *testing.T) {
	for _, tc := range []struct {
		arg  string
		want int
	}{{"-h", 0}, {"-help", 0}, {"-no-such-flag", 2}} {
		var stdout, stderr bytes.Buffer
		code := run([]string{tc.arg}, strings.NewReader(""), &stdout, &stderr)
		if code != tc.want || stdout.Len() > 0 || !strings.Contains(stderr.String(), "-max-time") {
			t.Fatalf("dimacs %s: exit %d (want %d), stdout %q, stderr %q", tc.arg, code, tc.want, stdout.String(), stderr.String())
		}
	}
}
