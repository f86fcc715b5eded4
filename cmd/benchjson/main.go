// Command benchjson converts `go test -bench` text output into a JSON
// artifact for the CI performance trajectory (BENCH_<pr>.json).  The JSON
// keeps every raw benchmark line verbatim — `jq -r '.benchmarks[].raw'`
// reconstructs a file benchstat consumes directly — next to the parsed
// per-metric values for dashboards and diffing.
//
// Usage:
//
//	go test -bench=. -benchtime=1x -run '^$' . | benchjson > BENCH.json
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// benchmark is one parsed benchmark result line.
type benchmark struct {
	// Name is the full benchmark name including the GOMAXPROCS suffix
	// (e.g. "BenchmarkExperiments/table1-8").
	Name string `json:"name"`
	// Iterations is b.N.
	Iterations int64 `json:"iterations"`
	// Metrics maps unit to value: the standard ns/op, B/op, allocs/op plus
	// every custom b.ReportMetric unit (reset-ns/op, solve-B/op, ...).
	Metrics map[string]float64 `json:"metrics"`
	// Raw is the untouched benchmark line, benchstat-consumable.
	Raw string `json:"raw"`
}

// output is the artifact's top-level document.
type output struct {
	Format string `json:"format"`
	// Env echoes the "goos:", "goarch:", "pkg:" and "cpu:" header lines.
	Env        map[string]string `json:"env"`
	Benchmarks []benchmark       `json:"benchmarks"`
}

func main() {
	if err := run(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

func run(in io.Reader, out io.Writer) error {
	doc := output{Format: "go-bench-json/v1", Env: map[string]string{}, Benchmarks: []benchmark{}}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if b, ok := parseBenchLine(line); ok {
			doc.Benchmarks = append(doc.Benchmarks, b)
			continue
		}
		for _, key := range []string{"goos", "goarch", "pkg", "cpu"} {
			if v, ok := strings.CutPrefix(line, key+": "); ok {
				doc.Env[key] = strings.TrimSpace(v)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// parseBenchLine parses "BenchmarkName-8   1   123 ns/op   3.2 reset-ns/op ..."
// into a benchmark.  Lines that do not look like results are skipped.
func parseBenchLine(line string) (benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 2 || !strings.HasPrefix(fields[0], "Benchmark") {
		return benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return benchmark{}, false
	}
	b := benchmark{Name: fields[0], Iterations: iters, Metrics: map[string]float64{}, Raw: line}
	// The remainder is value/unit pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return benchmark{}, false
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, true
}
