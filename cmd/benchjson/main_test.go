package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"strings"
	"testing"
)

// TestRunParsesATranscript turns a recorded `go test -bench` transcript of two
// packages into the JSON document CI keeps: every result line, and nothing
// else, verbatim as raw and in order, with its iterations and each value/unit
// pair parsed, and the header lines (the last package's) in env.
func TestRunParsesATranscript(t *testing.T) {
	transcript, err := os.ReadFile("testdata/transcript.txt")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(bytes.NewReader(transcript), &out); err != nil {
		t.Fatal(err)
	}
	var doc output
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var raw []string
	for _, line := range strings.Split(string(transcript), "\n") {
		if strings.HasPrefix(line, "Benchmark") {
			raw = append(raw, line)
		}
	}
	if doc.Format != "go-bench-json/v1" || len(doc.Benchmarks) != 4 || len(raw) != 4 {
		t.Fatalf("format %q with %d benchmarks, want go-bench-json/v1 with the transcript's 4", doc.Format, len(doc.Benchmarks))
	}
	for i, b := range doc.Benchmarks {
		if b.Raw != raw[i] || b.Iterations != 1 || !strings.HasPrefix(b.Raw, b.Name+" ") {
			t.Fatalf("benchmark %d is %+v, want the line %q", i, b, raw[i])
		}
	}
	for i, want := range []map[string]float64{
		{"ns/op": 95191, "harvest-ns/op": 4215, "reset-ns/op": 20074, "B/op": 576, "allocs/op": 2},
		{"ns/op": 116608, "harvest-ns/op": 11964, "reset-ns/op": 22118, "B/op": 1280, "allocs/op": 2},
		{"ns/op": 210639792, "B/task": 491.1, "allocs/task": 2.515, "us/task": 84.26},
		{"ns/op": 157157612, "B/task": 192.6, "allocs/task": 0.054, "us/task": 62.86, "wire-B/task-in": 256.2, "wire-B/task-out": 181.6},
	} {
		if got := doc.Benchmarks[i].Metrics; !maps.Equal(got, want) {
			t.Fatalf("benchmark %d: metrics %v, want %v", i, got, want)
		}
	}
	env := map[string]string{"goos": "linux", "goarch": "amd64", "pkg": "github.com/paper-repro/pdsat-go/internal/cluster", "cpu": "Intel(R) Xeon(R) Processor"}
	if !maps.Equal(doc.Env, env) {
		t.Fatalf("env %v, want %v", doc.Env, env)
	}
}
