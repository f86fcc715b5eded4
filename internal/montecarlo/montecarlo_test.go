package montecarlo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSampleStatistics(t *testing.T) {
	s := NewSample([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if got := s.Mean(); math.Abs(got-5) > 1e-12 {
		t.Fatalf("Mean = %v, want 5", got)
	}
	// Unbiased variance of this classic data set is 32/7.
	if got := s.Variance(); math.Abs(got-32.0/7.0) > 1e-12 {
		t.Fatalf("Variance = %v, want %v", got, 32.0/7.0)
	}
	if got := s.StdDev(); math.Abs(got-math.Sqrt(32.0/7.0)) > 1e-12 {
		t.Fatalf("StdDev = %v", got)
	}
	if s.Len() != 8 || s.Min() != 2 || s.Max() != 9 {
		t.Fatal("Len/Min/Max misbehave")
	}
	if se := s.StdErr(); math.Abs(se-s.StdDev()/math.Sqrt(8)) > 1e-12 {
		t.Fatalf("StdErr = %v", se)
	}
	vals := s.Values()
	vals[0] = 100
	if s.Values()[0] == 100 {
		t.Fatal("Values should return a copy")
	}
}

func TestEmptyAndSingletonSamples(t *testing.T) {
	e := NewSample(nil)
	if e.Mean() != 0 || e.Variance() != 0 || e.StdErr() != 0 || e.Min() != 0 || e.Max() != 0 {
		t.Fatal("empty sample statistics should be zero")
	}
	s := NewSample([]float64{3})
	if s.Mean() != 3 || s.Variance() != 0 {
		t.Fatal("singleton sample statistics")
	}
	s.Add(5)
	if s.Len() != 2 || s.Mean() != 4 {
		t.Fatal("Add misbehaves")
	}
}

func TestNewEstimate(t *testing.T) {
	s := NewSample([]float64{1, 2, 3})
	e := NewEstimate(10, s)
	if e.Dimension != 10 || e.SampleSize != 3 {
		t.Fatal("estimate metadata")
	}
	if math.Abs(e.Mean-2) > 1e-12 {
		t.Fatal("estimate mean")
	}
	want := math.Exp2(10) * 2
	if math.Abs(e.Value-want) > 1e-9 {
		t.Fatalf("F = %v, want %v", e.Value, want)
	}
}

func TestEstimateMatchesEquationTwoExactly(t *testing.T) {
	// For the *full* population the estimate must equal the exact total
	// t = 2^d · E[ξ] (eq. 2): sample the whole space once each.
	d := 6
	cost := func(alpha []bool) float64 {
		// Arbitrary deterministic cost: 1 + number of true bits squared.
		n := 0.0
		for _, b := range alpha {
			if b {
				n++
			}
		}
		return 1 + n*n
	}
	exact, err := ExhaustiveTotal(d, cost)
	if err != nil {
		t.Fatal(err)
	}
	var values []float64
	n := 1 << d
	for idx := 0; idx < n; idx++ {
		alpha := make([]bool, d)
		for j := 0; j < d; j++ {
			alpha[j] = idx&(1<<j) != 0
		}
		values = append(values, cost(alpha))
	}
	est := NewEstimate(d, NewSample(values))
	if math.Abs(est.Value-exact) > 1e-9 {
		t.Fatalf("full-population estimate %v != exact %v", est.Value, exact)
	}
}

func TestMonteCarloConvergesToExhaustive(t *testing.T) {
	// The Monte Carlo estimate with a large sample should land close to the
	// exhaustive total (this is the eq. 2/3 validation experiment in
	// miniature).
	d := 10
	cost := func(alpha []bool) float64 {
		v := 1.0
		for i, b := range alpha {
			if b {
				v += float64(i)
			}
		}
		return v
	}
	exact, err := ExhaustiveTotal(d, cost)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	var values []float64
	alpha := make([]bool, d)
	for range 4000 {
		for j := range alpha {
			alpha[j] = rng.Intn(2) == 1
		}
		values = append(values, cost(alpha))
	}
	est := NewEstimate(d, NewSample(values))
	if RelativeDeviation(exact, est.Value) > 0.05 {
		t.Fatalf("Monte Carlo estimate %v deviates more than 5%% from exact %v", est.Value, exact)
	}
	iv, err := est.ConfidenceInterval(0.99)
	if err != nil {
		t.Fatal(err)
	}
	if !iv.Contains(exact) {
		t.Fatalf("99%% confidence interval %v does not contain the exact value %v", iv, exact)
	}
	if iv.Width() <= 0 {
		t.Fatal("interval width should be positive")
	}
}

func TestConfidenceIntervalErrors(t *testing.T) {
	est := NewEstimate(4, NewSample(nil))
	if _, err := est.ConfidenceInterval(0.95); err == nil {
		t.Fatal("expected error for empty sample")
	}
	est = NewEstimate(4, NewSample([]float64{1, 2}))
	for _, g := range []float64{0, 1, -0.5, 1.5} {
		if _, err := est.ConfidenceInterval(g); err == nil {
			t.Fatalf("expected error for gamma=%v", g)
		}
	}
}

func TestIntervalContains(t *testing.T) {
	iv := Interval{Lo: 1, Hi: 3}
	if !iv.Contains(1) || !iv.Contains(3) || !iv.Contains(2) || iv.Contains(0) || iv.Contains(4) {
		t.Fatal("Contains misbehaves")
	}
	if iv.Width() != 2 {
		t.Fatal("Width misbehaves")
	}
}

func TestExtrapolateCores(t *testing.T) {
	if ExtrapolateCores(1000, 1) != 1000 || ExtrapolateCores(1000, 0) != 1000 {
		t.Fatal("1-core extrapolation should be the identity")
	}
	if ExtrapolateCores(1000, 480) != 1000.0/480 {
		t.Fatal("480-core extrapolation")
	}
	// Nonsensical core counts are treated as "no parallelism", never as a
	// sign flip or a division by a negative count.
	if ExtrapolateCores(1000, -4) != 1000 {
		t.Fatal("negative core counts must behave like 1 core")
	}
	// A zero estimate (e.g. a degenerate cost metric) stays zero for every
	// core count instead of producing NaN or negative zero surprises.
	for _, cores := range []int{-1, 0, 1, 480} {
		if got := ExtrapolateCores(0, cores); got != 0 {
			t.Fatalf("ExtrapolateCores(0, %d) = %v, want 0", cores, got)
		}
	}
}

func TestRelativeDeviation(t *testing.T) {
	if RelativeDeviation(100, 108) != 0.08 {
		t.Fatalf("got %v", RelativeDeviation(100, 108))
	}
	if RelativeDeviation(100, 92) != 0.08 {
		t.Fatalf("got %v", RelativeDeviation(100, 92))
	}
	if RelativeDeviation(0, 0) != 0 {
		t.Fatal("0/0 deviation should be 0")
	}
	if !math.IsInf(RelativeDeviation(0, 5), 1) {
		t.Fatal("deviation from a zero prediction should be +Inf")
	}
}

func TestNormalQuantile(t *testing.T) {
	cases := map[float64]float64{
		0.5:     0,
		0.975:   1.959964,
		0.995:   2.575829,
		0.84134: 1.0,
		0.02275: -2.0,
	}
	for p, want := range cases {
		got := NormalQuantile(p)
		if math.Abs(got-want) > 2e-4 {
			t.Errorf("NormalQuantile(%v) = %v, want %v", p, got, want)
		}
	}
	if !math.IsNaN(NormalQuantile(0)) || !math.IsNaN(NormalQuantile(1)) {
		t.Fatal("quantile outside (0,1) should be NaN")
	}
}

func TestNormalCDFAndQuantileAreInverses(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 0.001 + 0.998*rng.Float64()
		x := NormalQuantile(p)
		return math.Abs(NormalCDF(x)-p) < 1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestExhaustiveTotalBounds(t *testing.T) {
	if _, err := ExhaustiveTotal(30, func([]bool) float64 { return 1 }); err == nil {
		t.Fatal("expected refusal for d=30")
	}
	if _, err := ExhaustiveTotal(-1, func([]bool) float64 { return 1 }); err == nil {
		t.Fatal("expected refusal for d=-1")
	}
	total, err := ExhaustiveTotal(0, func([]bool) float64 { return 7 })
	if err != nil || total != 7 {
		t.Fatalf("d=0 total = %v, %v", total, err)
	}
	total, err = ExhaustiveTotal(3, func([]bool) float64 { return 1 })
	if err != nil || total != 8 {
		t.Fatalf("d=3 constant total = %v", total)
	}
}

// Property: the CLT interval at higher confidence is wider.
func TestConfidenceMonotonicityProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		values := make([]float64, 30)
		for i := range values {
			values[i] = rng.Float64() * 100
		}
		est := NewEstimate(5, NewSample(values))
		iv90, err1 := est.ConfidenceInterval(0.90)
		iv99, err2 := est.ConfidenceInterval(0.99)
		if err1 != nil || err2 != nil {
			return false
		}
		return iv99.Width() >= iv90.Width()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: the predictive function is linear in the cost scale — scaling
// every observation by c scales F by c (this is why conflicts vs. seconds
// only changes units, not the ordering of decomposition sets).
func TestEstimateScaleInvarianceProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		scale := 0.5 + rng.Float64()*10
		values := make([]float64, 20)
		scaled := make([]float64, 20)
		for i := range values {
			values[i] = rng.Float64() * 50
			scaled[i] = values[i] * scale
		}
		e1 := NewEstimate(8, NewSample(values))
		e2 := NewEstimate(8, NewSample(scaled))
		return math.Abs(e2.Value-scale*e1.Value) < 1e-6*math.Max(1, e1.Value)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestConfidenceHalfWidth pins the eq.-3 half-width δ_γ·σ/√N at the two
// confidence levels the paper's tables use.  At γ=0.95 the two-sided
// quantile is Φ⁻¹(0.975) ≈ 1.959964, at γ=0.99 it is Φ⁻¹(0.995) ≈ 2.575829.
func TestConfidenceHalfWidth(t *testing.T) {
	cases := []struct {
		stddev float64
		n      int
		gamma  float64
		want   float64
	}{
		{1, 1, 0.95, 1.9599640},
		{1, 100, 0.95, 0.19599640},
		{2, 25, 0.95, 0.78398559},
		{1, 1, 0.99, 2.5758293},
		{1, 100, 0.99, 0.25758293},
		{3, 9, 0.99, 2.5758293},
	}
	for _, c := range cases {
		got := ConfidenceHalfWidth(c.stddev, c.n, c.gamma)
		if math.Abs(got-c.want) > 1e-6 {
			t.Errorf("ConfidenceHalfWidth(%v, %d, %v) = %v, want %v",
				c.stddev, c.n, c.gamma, got, c.want)
		}
	}
}

// TestConfidenceHalfWidthMatchesInterval cross-checks the helper against
// Estimate.ConfidenceInterval: the interval's width is 2·2^d·halfwidth.
func TestConfidenceHalfWidthMatchesInterval(t *testing.T) {
	s := NewSample([]float64{3, 7, 4, 9, 1, 6, 2, 8})
	e := NewEstimate(5, s)
	for _, gamma := range []float64{0.95, 0.99} {
		iv, err := e.ConfidenceInterval(gamma)
		if err != nil {
			t.Fatal(err)
		}
		want := 2 * math.Exp2(5) * ConfidenceHalfWidth(e.StdDev, e.SampleSize, gamma)
		if math.Abs(iv.Width()-want) > 1e-9*want {
			t.Errorf("γ=%v: interval width %v, want %v", gamma, iv.Width(), want)
		}
	}
}

// TestConfidenceHalfWidthDegenerate covers the degenerate inputs the staged
// early stop must handle: σ=0 (constant sample) has zero width at any level
// and size, N=1 has no variance information (σ computed as 0 upstream, but
// the helper itself still scales an explicit σ by √1), N≤0 carries no
// information, and confidence levels outside (0,1) are undefined.
func TestConfidenceHalfWidthDegenerate(t *testing.T) {
	if got := ConfidenceHalfWidth(0, 50, 0.95); got != 0 {
		t.Errorf("σ=0: half-width %v, want 0", got)
	}
	if got := ConfidenceHalfWidth(0, 1, 0.99); got != 0 {
		t.Errorf("σ=0, N=1: half-width %v, want 0", got)
	}
	// N=1 with a nonzero σ: the half-width equals the full quantile·σ.
	if got, want := ConfidenceHalfWidth(2, 1, 0.95), 2*NormalQuantile(0.975); math.Abs(got-want) > 1e-9 {
		t.Errorf("N=1: half-width %v, want %v", got, want)
	}
	if got := ConfidenceHalfWidth(1, 0, 0.95); !math.IsInf(got, 1) {
		t.Errorf("N=0: half-width %v, want +Inf", got)
	}
	if got := ConfidenceHalfWidth(1, -3, 0.95); !math.IsInf(got, 1) {
		t.Errorf("N<0: half-width %v, want +Inf", got)
	}
	for _, gamma := range []float64{0, 1, -0.5, 1.5} {
		if got := ConfidenceHalfWidth(1, 10, gamma); !math.IsNaN(got) {
			t.Errorf("γ=%v: half-width %v, want NaN", gamma, got)
		}
	}
	// A singleton Sample reports σ=0 (variance needs two observations), so
	// the end-to-end early-stop quantity is 0 — which is why the engine
	// additionally requires n ≥ 2 before trusting the criterion.
	single := NewSample([]float64{7})
	if got := ConfidenceHalfWidth(single.StdDev(), single.Len(), 0.95); got != 0 {
		t.Errorf("singleton sample: half-width %v, want 0", got)
	}
}
