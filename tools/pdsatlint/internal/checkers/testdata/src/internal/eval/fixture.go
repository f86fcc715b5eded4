// Package eval is a determinism-analyzer fixture standing in for one of
// the repository's deterministic packages (matched by import-path
// suffix).
package eval

import (
	"math/rand"
	"sort"
	"time"
)

// SubSeed stands in for the sanctioned seed-derivation helper.
func SubSeed(root int64, i int) int64 { return root + int64(i) }

func clocks() time.Duration {
	now := time.Now()      // want `time\.Now in deterministic package`
	return time.Since(now) // want `time\.Since in deterministic package`
}

//pdsat:nondeterministic wall-clock reporting only, never feeds results
func justifiedByDoc() time.Time {
	return time.Now()
}

func justifiedInline() time.Time {
	//pdsat:nondeterministic measuring elapsed wall time for the log line
	return time.Now()
}

func missingJustification() time.Time {
	//pdsat:nondeterministic // want `needs a justification`
	return time.Now() // want `time\.Now in deterministic package`
}

func ambient() int {
	return rand.Int() // want `top-level math/rand function rand\.Int`
}

func unseeded() *rand.Rand {
	return rand.New(rand.NewSource(42)) // want `rand\.New outside the sanctioned seed-derivation`
}

func seeded(rootSeed int64) *rand.Rand {
	return rand.New(rand.NewSource(SubSeed(rootSeed, 1)))
}

func mapOrder(m map[int]float64) float64 {
	var total float64
	for _, v := range m { // want `map iteration order feeds unsorted sink`
		total += v
	}
	return total
}

func sortedKeys(m map[int]float64) []int {
	var keys []int
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

func clearValues(m map[int]float64) {
	for k := range m {
		m[k] = 0
	}
}

func race(a, b chan int) int {
	select { // want `select with 2 result-carrying cases`
	case v := <-a:
		return v
	case v := <-b:
		return v
	}
}

func oneResult(a chan int, done chan struct{}) int {
	select {
	case v := <-a:
		return v
	case <-done:
		return 0
	}
}

func fusable(x, y, z float64) float64 {
	s := x*y + z // want `float product added without an explicit conversion`
	s += x * y   // want `float product added without an explicit conversion`
	return s
}

func fusableEscaped(x, y, z float64) float64 {
	//pdsat:nondeterministic an architecture-dependent last bit is harmless in this estimate
	return x*y + z
}

func roundedFirst(x, y, z float64, i, j int) float64 {
	return float64(x*y) + z + float64(i*j+i)
}
