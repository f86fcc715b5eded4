package solver

import (
	"math"
	"testing"
)

// effectiveConflicts maps a budget counter to its effective limit, treating
// the zero value as unlimited.
func effectiveCounter(v uint64) uint64 {
	if v == 0 {
		return math.MaxUint64
	}
	return v
}

// FuzzBudgetForCost checks the budget algebra the evaluation engine's
// incumbent pruning is built on: BudgetForCost rejects unusable allowances
// with the unlimited budget, a budgeted counter always strictly exceeds its
// allowance (so a truncated solve certifies cost > allowance), and
// TightenedBy never loosens any limit and is symmetric.
func FuzzBudgetForCost(f *testing.F) {
	f.Add(int8(0), 100.0, uint64(50), uint64(0))
	f.Add(int8(1), 0.5, uint64(0), uint64(200))
	f.Add(int8(0), 0.0, uint64(1), uint64(1))
	f.Add(int8(0), -3.0, uint64(0), uint64(0))
	f.Add(int8(2), 42.0, uint64(7), uint64(7))
	f.Add(int8(3), math.MaxFloat64, uint64(0), uint64(9))
	f.Fuzz(func(t *testing.T, metricRaw int8, allowance float64, conf, prop uint64) {
		metric := CostMetric(int(metricRaw & 3)) // CostConflicts..CostWallTime
		b := BudgetForCost(metric, allowance)

		unusable := allowance <= 0 || math.IsInf(allowance, 1) || math.IsNaN(allowance)
		budgetable := metric == CostConflicts || metric == CostPropagations
		if unusable || !budgetable {
			if b != (Budget{}) {
				t.Fatalf("BudgetForCost(%v, %v) = %+v, want zero budget", metric, allowance, b)
			}
			return
		}
		limit := b.MaxConflicts
		other := b.MaxPropagations
		if metric == CostPropagations {
			limit, other = other, limit
		}
		if other != 0 {
			t.Fatalf("BudgetForCost(%v, %v) budgeted the wrong counter: %+v", metric, allowance, b)
		}
		if limit == 0 {
			t.Fatalf("BudgetForCost(%v, %v) returned no limit for a positive finite allowance", metric, allowance)
		}
		// The budgeted counter must strictly exceed the allowance, so a
		// solve stopped by it has certified cost > allowance.  (Allowances
		// beyond 2^64 overflow the counter; uint64(Ceil) saturates there and
		// the +1 keeps the limit non-zero, so only check in-range values.)
		if allowance < math.MaxUint64/2 && float64(limit) <= allowance {
			t.Fatalf("BudgetForCost(%v, %v) limit %d does not exceed the allowance", metric, allowance, limit)
		}

		// Tightening an arbitrary base budget by b must never loosen a
		// limit, must yield exactly the element-wise minimum, and must not
		// depend on operand order.
		base := Budget{MaxConflicts: conf, MaxPropagations: prop}
		tight := base.TightenedBy(b)
		if effectiveCounter(tight.MaxConflicts) > effectiveCounter(base.MaxConflicts) ||
			effectiveCounter(tight.MaxPropagations) > effectiveCounter(base.MaxPropagations) {
			t.Fatalf("TightenedBy loosened a limit: base %+v, by %+v, got %+v", base, b, tight)
		}
		if got, want := effectiveCounter(tight.MaxConflicts), min(effectiveCounter(base.MaxConflicts), effectiveCounter(b.MaxConflicts)); got != want {
			t.Fatalf("TightenedBy MaxConflicts = %d, want min %d (base %+v, by %+v)", got, want, base, b)
		}
		if got, want := effectiveCounter(tight.MaxPropagations), min(effectiveCounter(base.MaxPropagations), effectiveCounter(b.MaxPropagations)); got != want {
			t.Fatalf("TightenedBy MaxPropagations = %d, want min %d (base %+v, by %+v)", got, want, base, b)
		}
		if sym := b.TightenedBy(base); sym != tight {
			t.Fatalf("TightenedBy is not symmetric: %+v vs %+v", tight, sym)
		}
	})
}
