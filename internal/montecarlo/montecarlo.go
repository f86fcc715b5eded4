// Package montecarlo implements the statistical core of the paper: the
// Monte Carlo estimation of the expected subproblem cost E[ξ_{C,A}(X̃)] and
// the predictive function
//
//	F_{C,A}(X̃) = 2^d · (1/N) · Σ_{j=1..N} ζ_j            (eq. 5)
//
// together with the Central-Limit-Theorem confidence interval of eq. (3),
//
//	Pr( | (1/N)Σζ_j − E[ξ] | < δ_γ·σ/√N ) = γ,  γ = Φ(δ_γ).
//
// The package is agnostic to what the cost ζ measures (wall-clock seconds as
// in the paper, or deterministic solver effort such as conflicts).
package montecarlo

import (
	"errors"
	"fmt"
	"math"
)

// Sample holds observed costs ζ_1..ζ_N of randomly chosen subproblems.
type Sample struct {
	values []float64
}

// NewSample creates a sample from observed values (the slice is copied).
func NewSample(values []float64) *Sample {
	return &Sample{values: append([]float64(nil), values...)}
}

// Add appends an observation.
func (s *Sample) Add(v float64) { s.values = append(s.values, v) }

// Len returns the number of observations N.
func (s *Sample) Len() int { return len(s.values) }

// Values returns a copy of the observations.
func (s *Sample) Values() []float64 { return append([]float64(nil), s.values...) }

// Mean returns the sample mean (0 for an empty sample).
func (s *Sample) Mean() float64 {
	if len(s.values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.values {
		sum += v
	}
	return sum / float64(len(s.values))
}

// Variance returns the unbiased sample variance (0 if fewer than two
// observations).
func (s *Sample) Variance() float64 {
	n := len(s.values)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	sum := 0.0
	for _, v := range s.values {
		d := v - m
		sum += float64(d * d) // rounded on its own, never fused (see poly)
	}
	return sum / float64(n-1)
}

// StdDev returns the sample standard deviation σ.
func (s *Sample) StdDev() float64 { return math.Sqrt(s.Variance()) }

// StdErr returns σ/√N, the standard error of the mean.
func (s *Sample) StdErr() float64 {
	if len(s.values) == 0 {
		return 0
	}
	return s.StdDev() / math.Sqrt(float64(len(s.values)))
}

// Max returns the largest observation (0 for an empty sample).
func (s *Sample) Max() float64 {
	m := 0.0
	for i, v := range s.values {
		if i == 0 || v > m {
			m = v
		}
	}
	return m
}

// Min returns the smallest observation (0 for an empty sample).
func (s *Sample) Min() float64 {
	m := 0.0
	for i, v := range s.values {
		if i == 0 || v < m {
			m = v
		}
	}
	return m
}

// Estimate is the result of evaluating the predictive function at one
// decomposition set.
type Estimate struct {
	// Dimension is d = |X̃|.
	Dimension int `json:"dimension"`
	// SampleSize is N, the number of random subproblems solved.
	SampleSize int `json:"sample_size"`
	// Mean is the sample mean of the observed costs (an estimate of E[ξ]).
	Mean float64 `json:"mean"`
	// StdDev is the sample standard deviation of the observed costs.
	StdDev float64 `json:"stddev"`
	// Value is the predictive function F = 2^d · Mean, in the same cost
	// units as the observations (seconds in the paper).
	Value float64 `json:"value"`
}

// NewEstimate computes the predictive function value from a sample.
func NewEstimate(dimension int, s *Sample) Estimate {
	return Estimate{
		Dimension:  dimension,
		SampleSize: s.Len(),
		Mean:       s.Mean(),
		StdDev:     s.StdDev(),
		Value:      math.Exp2(float64(dimension)) * s.Mean(),
	}
}

// ConfidenceInterval returns the γ-confidence interval [Lo, Hi] for the
// *total* cost t_{C,A}(X̃) = 2^d·E[ξ], obtained by scaling the CLT interval
// of eq. (3) for E[ξ] by 2^d.  gamma must lie in (0,1).
func (e Estimate) ConfidenceInterval(gamma float64) (Interval, error) {
	if e.SampleSize == 0 {
		return Interval{}, errors.New("montecarlo: empty sample")
	}
	if gamma <= 0 || gamma >= 1 {
		return Interval{}, fmt.Errorf("montecarlo: confidence level %v outside (0,1)", gamma)
	}
	// eq. (3): the half-width for the mean is δ_γ·σ/√N with γ = Φ(δ_γ).
	half := ConfidenceHalfWidth(e.StdDev, e.SampleSize, gamma)
	scale := math.Exp2(float64(e.Dimension))
	return Interval{
		Lo: scale * (e.Mean - half),
		Hi: scale * (e.Mean + half),
	}, nil
}

// ConfidenceHalfWidth returns δ_γ·σ/√n, the half-width of the eq.-3 CLT
// confidence interval for the sample mean at two-sided confidence level
// gamma (γ = Φ(δ_γ), so the two-sided quantile is Φ⁻¹((1+γ)/2)).  It is the
// quantity the staged-sampling early stop of the evaluation engine compares
// against ε·mean.  Degenerate inputs follow the statistics: a zero standard
// deviation yields a zero half-width (the sample carries no spread), a
// sample of fewer than one observation carries no information and yields
// +Inf, and a confidence level outside (0,1) yields NaN.
func ConfidenceHalfWidth(stddev float64, n int, gamma float64) float64 {
	if gamma <= 0 || gamma >= 1 {
		return math.NaN()
	}
	if n < 1 {
		return math.Inf(1)
	}
	return NormalQuantile((1+gamma)/2) * stddev / math.Sqrt(float64(n))
}

// Interval is a closed real interval.
type Interval struct{ Lo, Hi float64 }

// Contains reports whether x lies in the interval.
func (iv Interval) Contains(x float64) bool { return x >= iv.Lo && x <= iv.Hi }

// Width returns Hi-Lo.
func (iv Interval) Width() float64 { return iv.Hi - iv.Lo }

// ExtrapolateCores divides a 1-core predictive value by the number of
// cores.  Because the subproblems of a partitioning are independent, the
// paper extrapolates the sequential estimate to an arbitrary parallel or
// distributed system this way (Section 4, Table 3).
func ExtrapolateCores(value float64, cores int) float64 {
	if cores <= 1 {
		return value
	}
	return value / float64(cores)
}

// RelativeDeviation returns |actual-predicted|/predicted, the measure used
// in Section 4.4 ("on average the real solving time deviates from the
// estimation by about 8%").
func RelativeDeviation(predicted, actual float64) float64 {
	if predicted == 0 {
		if actual == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(actual-predicted) / math.Abs(predicted)
}

// NormalQuantile returns Φ⁻¹(p), the standard normal quantile, using the
// Acklam rational approximation (relative error below 1.15e-9), which is
// ample for confidence-interval construction.
func NormalQuantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		if p == 0.5 {
			return 0
		}
		return math.NaN()
	}
	// Coefficients of the Acklam approximation, highest degree first; the
	// denominators end in their constant term 1.
	a := [...]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [...]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01, 1}
	c := [...]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [...]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00, 1}
	const pLow = 0.02425
	const pHigh = 1 - pLow
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		return poly(q, c[:]) / poly(q, d[:])
	case p <= pHigh:
		q := p - 0.5
		r := q * q
		return poly(r, a[:]) * q / poly(r, b[:])
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -poly(q, c[:]) / poly(q, d[:])
	}
}

// poly evaluates the polynomial with the coefficients coef, highest degree
// first, at x by Horner's rule.  Every product is rounded on its own: the
// explicit conversion forbids a compiler to fuse it with the addition into
// one multiply-add (Go spec, "Floating-point operators"), which arm64,
// ppc64le, s390x and riscv64 would otherwise do and amd64 does not, so the
// value is the same on every architecture.
func poly(x float64, coef []float64) float64 {
	v := 0.0
	for _, k := range coef {
		v = float64(v*x) + k
	}
	return v
}

// NormalCDF returns Φ(x), the standard normal cumulative distribution
// function.
func NormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// ExhaustiveTotal computes the exact total cost t_{C,A}(X̃) = Σ over all 2^d
// assignments of cost(α), by full enumeration.  Only usable for small d; it
// exists to validate the Monte Carlo estimate in tests and in the
// convergence experiment.
func ExhaustiveTotal(d int, cost func(alpha []bool) float64) (float64, error) {
	if d < 0 || d > 24 {
		return 0, fmt.Errorf("montecarlo: refusing to enumerate 2^%d assignments", d)
	}
	total := 0.0
	n := uint64(1) << uint(d)
	alpha := make([]bool, d)
	for idx := uint64(0); idx < n; idx++ {
		for j := 0; j < d; j++ {
			alpha[j] = idx&(1<<uint(j)) != 0
		}
		total += cost(alpha)
	}
	return total, nil
}
