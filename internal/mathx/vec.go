package mathx

import "math"

// Dot returns the inner product of a and b. It panics if the lengths
// differ, because a length mismatch is always a programming error in
// this codebase (feature vectors are fixed-width). The loop is four-way
// unrolled with independent accumulators so the multiplies pipeline; the
// summation order therefore differs from the naive left-to-right loop,
// which is fine everywhere Dot is used (results stay deterministic for a
// given binary).
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("mathx: Dot length mismatch")
	}
	b = b[:len(a)] // bounds-check hint
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	s := s0 + s1 + s2 + s3
	for ; i < len(a); i++ {
		s += a[i] * b[i]
	}
	return s
}

// SquaredDistance returns the squared Euclidean distance between a and b.
func SquaredDistance(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("mathx: SquaredDistance length mismatch")
	}
	s := 0.0
	for i, v := range a {
		d := v - b[i]
		s += d * d
	}
	return s
}

// Distance returns the Euclidean distance between a and b.
func Distance(a, b []float64) float64 {
	return math.Sqrt(SquaredDistance(a, b))
}

// SquaredNorm returns ‖v‖², the sum of squared components. Hot kernels
// cache it per vector so ‖x−y‖² = ‖x‖²+‖y‖²−2·x·y needs only one dot
// product per pair instead of a full subtract-square pass.
func SquaredNorm(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return s
}

// Norm returns the Euclidean norm of v.
func Norm(v []float64) float64 {
	return math.Sqrt(SquaredNorm(v))
}

// Normalize scales v in place to unit Euclidean norm. A zero vector is
// left unchanged.
func Normalize(v []float64) {
	n := Norm(v)
	if n == 0 {
		return
	}
	for i := range v {
		v[i] /= n
	}
}

// AddScaled performs dst += scale * src in place.
func AddScaled(dst []float64, scale float64, src []float64) {
	if len(dst) != len(src) {
		panic("mathx: AddScaled length mismatch")
	}
	for i, v := range src {
		dst[i] += scale * v
	}
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 for fewer than
// two samples.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// Sigmoid returns 1/(1+e^-x) with clamping to avoid overflow.
func Sigmoid(x float64) float64 {
	switch {
	case x > 30:
		return 1
	case x < -30:
		return 0
	}
	return 1 / (1 + math.Exp(-x))
}

// Sigmoid lookup table: 1024 uniform intervals over [−sigBound, sigBound]
// (1025 knots so interval i interpolates between knots i and i+1), the
// same bounded-table trick the reference LINE implementation uses to keep
// math.Exp out of the SGD inner loop.
const (
	sigBound     = 6.0
	sigIntervals = 1024
	sigScale     = sigIntervals / (2 * sigBound)
)

var sigTable = func() [sigIntervals + 1]float64 {
	var t [sigIntervals + 1]float64
	for i := range t {
		t[i] = Sigmoid(-sigBound + float64(i)/sigScale)
	}
	return t
}()

// SigmoidTable returns FastSigmoid's knots, read-only, for a kernel
// that inlines the lookup (internal/line's) to interpolate the very
// values FastSigmoid does.
func SigmoidTable() *[sigIntervals + 1]float64 { return &sigTable }

// FastSigmoid returns a linearly interpolated table lookup of the
// logistic function. Inside [−6, 6] the interpolation error is below
// 2e−6 (h²/8·max|σ″| with table step h ≈ 0.0117 and |σ″| ≤ 0.0963);
// outside it clamps to
// 0 or 1, so the worst-case absolute error is σ(−6) ≈ 2.5e−3 at the
// boundary — the same truncation the reference LINE implementation
// applies, and far below SGD's own gradient noise. NaN input clamps to
// 1 rather than propagating.
func FastSigmoid(x float64) float64 {
	if x <= -sigBound {
		return 0
	}
	if x >= sigBound || math.IsNaN(x) {
		return 1
	}
	f := (x + sigBound) * sigScale
	i := int(f)
	if i >= sigIntervals {
		// x one ulp below sigBound can still round (x+sigBound)*sigScale
		// up to exactly sigIntervals, which would read past the last
		// knot; treat it as the boundary clamp.
		return 1
	}
	frac := f - float64(i)
	return sigTable[i] + frac*(sigTable[i+1]-sigTable[i])
}

// ExpNeg returns e^x for x ≤ 0 with relative error below 1e−8, roughly
// 3× faster than math.Exp. It is the RBF kernel's exponential: kernel
// arguments are −γ‖x−y‖² ≤ 0, and a 1e−8 relative perturbation of a
// kernel value is orders of magnitude below the SMO tolerance (1e−3).
// The implementation is standard range reduction x = k·ln2 + r with
// |r| ≤ ln2/2, a degree-7 Taylor polynomial for e^r (truncation error
// ≤ |r|⁸/8! ≈ 5e−9 relative), and an exponent-field rebuild for the 2^k
// scale. The polynomial is evaluated in Estrin form — four independent
// linear terms combined through r² and r⁴ — which roughly halves the
// floating-point dependency chain versus Horner, and inputs already in
// [−ln2/2, 0] skip range reduction entirely (the common case for RBF
// arguments near 0). Positive inputs fall back to math.Exp.
func ExpNeg(x float64) float64 {
	// This two-branch wrapper stays under the inlining budget, so hot
	// callers evaluate the no-reduction case without a function call.
	if x > -halfLn2 && x <= 0 {
		return expPoly(x)
	}
	return expNegSlow(x)
}

// expNegSlow is the out-of-line remainder of ExpNeg: inputs that need
// range reduction, underflow to zero, or fall back to math.Exp.
func expNegSlow(x float64) float64 {
	if x >= 0 {
		if x == 0 {
			return 1
		}
		return math.Exp(x)
	}
	if x < -708 { // e^x underflows float64
		return 0
	}
	const (
		invLn2 = 1.44269504088896338700e+00
		ln2Hi  = 6.93147180369123816490e-01
		ln2Lo  = 1.90821492927058770002e-10
	)
	kf := math.Floor(x*invLn2 + 0.5)
	r := (x - kf*ln2Hi) - kf*ln2Lo
	p := expPoly(r)
	k := int(kf)
	if k < -1022 {
		// Subnormal result range: delegate the tricky scaling.
		return math.Ldexp(p, k)
	}
	return p * math.Float64frombits(uint64(1023+k)<<52)
}

const halfLn2 = 0.34657359027997264 // ln2/2, the range-reduction radius

// expPoly evaluates the degree-7 Taylor polynomial of e^r for
// |r| ≤ ln2/2 in Estrin form.
func expPoly(r float64) float64 {
	r2 := r * r
	r4 := r2 * r2
	q01 := 1 + r
	q23 := 1.0/2 + r*(1.0/6)
	q45 := 1.0/24 + r*(1.0/120)
	q67 := 1.0/720 + r*(1.0/5040)
	return (q01 + r2*q23) + r4*(q45+r2*q67)
}

// Concat returns the concatenation of the given vectors as one new slice.
func Concat(vs ...[]float64) []float64 {
	n := 0
	for _, v := range vs {
		n += len(v)
	}
	out := make([]float64, 0, n)
	for _, v := range vs {
		out = append(out, v...)
	}
	return out
}
