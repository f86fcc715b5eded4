package expts

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// quickGolden is every experiment's rendered tables at QuickScale, the
// yardstick of any change to the harness or to the library under it.
//
//	PDSAT_UPDATE_GOLDENS=1 go test -run TestQuickScaleGolden ./internal/expts
//
// re-records it — only when a table moves on purpose.
const quickGolden = "testdata/quick.txt"

// renderQuick runs every experiment at QuickScale and renders its tables,
// leaving out what is not a function of the seed: the portfolio race (its
// winner is whichever configuration answers first) and wall-clock columns.
func renderQuick(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, e := range Experiments() {
		if e.ID == "portfolio-vs-partitioning" {
			continue
		}
		tables, err := e.Run(context.Background(), QuickScale())
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		buf.WriteString("### " + e.ID + "\n\n")
		for _, tab := range tables {
			if err := withoutWallTime(tab).Write(&buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	return buf.Bytes()
}

// withoutWallTime returns a copy of the table without its "wall time" columns.
func withoutWallTime(t *Table) *Table {
	out := &Table{Title: t.Title, Notes: t.Notes}
	var keep []int
	for i, h := range t.Header {
		if !strings.HasPrefix(h, "wall time") {
			keep = append(keep, i)
			out.Header = append(out.Header, h)
		}
	}
	for _, row := range t.Rows {
		var cells []string
		for _, i := range keep {
			if i < len(row) {
				cells = append(cells, row[i])
			}
		}
		out.Rows = append(out.Rows, cells)
	}
	return out
}

// TestQuickScaleGolden regenerates every experiment's tables at QuickScale
// and compares them with the recording byte for byte: the same sets, the same
// F, the same layout.
func TestQuickScaleGolden(t *testing.T) {
	got := renderQuick(t)
	if os.Getenv("PDSAT_UPDATE_GOLDENS") != "" {
		if err := os.MkdirAll(filepath.Dir(quickGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(quickGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(quickGolden)
	if err != nil {
		t.Fatalf("missing golden file (record with PDSAT_UPDATE_GOLDENS=1): %v", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("%s: first difference at line %d:\n got  %q\n want %q", quickGolden, i+1, g, w)
			}
		}
	}
}
