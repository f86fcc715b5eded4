package expts

import (
	"fmt"
	"strings"

	"github.com/paper-repro/pdsat-go/internal/cnf"
	"github.com/paper-repro/pdsat-go/internal/encoder"
)

// register is one shift register of a generator's state: its label and where
// its cells sit among the instance's start variables.
type register struct {
	name           string
	offset, length int
}

// registerFigure renders a decomposition set register by register, marking
// the selected cells — the textual equivalent of the paper's register
// diagrams (Figures 1–4).
func registerFigure(title string, inst *encoder.Instance, vars []cnf.Var, regs []register, notes ...string) *Table {
	selected := make(map[cnf.Var]bool, len(vars))
	for _, v := range vars {
		selected[v] = true
	}
	known := knownStartVars(inst)
	t := &Table{
		Title:  title,
		Header: []string{"Register", "Cells (X = in set, k = known, . = free)", "Selected"},
		Notes:  notes,
	}
	for _, reg := range regs {
		var sb strings.Builder
		count := 0
		for _, v := range inst.StartVars[reg.offset : reg.offset+reg.length] {
			switch {
			case selected[v]:
				sb.WriteByte('X')
				count++
			case known[v]:
				sb.WriteByte('k')
			default:
				sb.WriteByte('.')
			}
		}
		t.Rows = append(t.Rows, []string{reg.name, sb.String(), fmt.Sprintf("%d", count)})
	}
	return t
}

// setSizeNote is the figures' note on the size of the drawn set.
func setSizeNote(inst *encoder.Instance, vars []cnf.Var, scale Scale) string {
	return fmt.Sprintf("|set| = %d of %d unknown state bits (scale %q)", len(vars), len(inst.UnknownStartVars()), scale.Name)
}

// knownStartVars returns the set of start variables fixed by the instance's
// weakening (prefix and suffix).
func knownStartVars(inst *encoder.Instance) map[cnf.Var]bool {
	known := make(map[cnf.Var]bool)
	n := len(inst.StartVars)
	for i := 0; i < inst.KnownPrefix && i < n; i++ {
		known[inst.StartVars[i]] = true
	}
	for i := n - inst.KnownSuffix; i < n; i++ {
		if i >= 0 {
			known[inst.StartVars[i]] = true
		}
	}
	return known
}
