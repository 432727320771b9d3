package gen

import "math"

// The Erdős–Rényi generators sample a row by Batagelj–Brandes geometric
// skips: the gap before the next present server is
// floor(log(u)/log(1−p)) for a uniform u. The walk needs only that
// integer, not log(u) itself, so skipWalk computes the quotient from a
// table-driven log that is cheaper than math.Log, and falls back to the
// exact expression only where the approximation could land on the other
// side of an integer. Every skip is bit-identical to skipFromUniform.

// logTableBits is the number of leading mantissa bits that index logTable.
const logTableBits = 10

// logTable holds, for each mantissa interval
// [1 + i/2¹⁰, 1 + (i+1)/2¹⁰), the rounded reciprocal invc of the
// interval's midpoint and logc = −log(invc) of that rounded value, so
// log(m) = logc + log(m·invc) holds exactly for every m in the interval
// and |m·invc − 1| ≤ 2⁻¹¹. 16 KiB.
var logTable = func() (t [1 << logTableBits]struct{ invc, logc float64 }) {
	for i := range t {
		invc := 1 / (1 + (float64(i)+0.5)/(1<<logTableBits))
		t[i].invc = invc
		t[i].logc = -math.Log(invc)
	}
	return t
}()

// skipWalk holds the per-row constants of the skip walk for one edge
// probability p. Build it once per row (or per graph) with newSkipWalk;
// every Erdős–Rényi generator draws its skips through skip.
type skipWalk struct {
	logq    float64 // log(1−p)
	invLogq float64 // 1/logq
	tol     float64 // 2⁻⁴⁰/|logq|, the guard's absolute margin on the quotient
}

// newSkipWalk returns the walk for an edge probability p < 1 and whether
// any server can be present at all. It cannot for p ≤ 0, nor for
// 0 < p ≤ 2⁻⁵⁴, where 1−p rounds to 1 and log(1−p) = 0: the quotient
// would be −Inf, so such rows hold only the ensure-clients fallback
// edge, as for p = 0.
func newSkipWalk(p float64) (skipWalk, bool) {
	logq := math.Log(1 - p)
	return skipWalk{logq: logq, invLogq: 1 / logq, tol: 0x1p-40 / -logq}, logq < 0
}

// skip returns the number of absent servers before the next present one
// for the uniform sample u: skipFromUniform(u, w.logq), taken from the
// fast quotient wherever exactFloor proves its floor exact.
func (w skipWalk) skip(u float64) int {
	if u >= 0x1p-1022 {
		if s, ok := w.exactFloor(w.quotient(u)); ok {
			return s
		}
	}
	return skipFromUniform(u, w.logq)
}

// quotient approximates log(u)/logq for a normal u > 0. With
// u = 2ᵉ·m, m in [1, 2), and the table entry of m's top ten mantissa
// bits, log(u) = e·ln2 + logc + log(1+r) for r = m·invc − 1, and
// log(1+r) is taken to third order.
func (w skipWalk) quotient(u float64) float64 {
	b := math.Float64bits(u)
	e := float64(int(b>>52) - 1023)
	t := &logTable[(b>>(52-logTableBits))&(1<<logTableBits-1)]
	m := math.Float64frombits(b&(1<<52-1) | 1023<<52)
	r := m*t.invc - 1
	return (e*math.Ln2 + t.logc + (r - r*r*(0.5-r*(1.0/3)))) * w.invLogq
}

// exactFloor returns floor(y) for the fast quotient y = quotient(u) of
// a normal u, and whether that floor provably equals
// skipFromUniform(u, w.logq); when it is false the caller computes the
// exact expression.
//
// The margin. Write L = log(u) and Y = L/logq. The fast log l differs
// from L by at most 2⁻⁴⁶ from truncating log(1+r) at |r| ≤ 2⁻¹¹ (r⁴/4),
// plus a few 2⁻⁵³ from rounding r, the table's logc and the sums, plus
// 2⁻⁵¹·|L| from e·ln2 and the sums' rounding at large |e|; math.Log
// is within 1 ulp ≤ 2⁻⁵²·|L|. So l and math.Log(u) differ by at most
// 2⁻⁴⁴ + 2⁻⁵⁰·|L|. Multiplying by the rounded 1/logq instead of dividing
// by logq adds at most 2 ulp(y) ≤ 2⁻⁵¹·|y| against the exact quotient's
// own rounding. The two quotients therefore differ by less than
// 2⁻⁴⁴/|logq| + 2⁻⁴⁹·|y|, and the margin tol + 2⁻⁴⁵·|y| =
// 2⁻⁴⁰/|logq| + 2⁻⁴⁵·|y| covers both terms 16×. If y lies farther than
// the margin from every integer, the exact quotient lies strictly between
// the same two integers, so the floors agree. The guard also requires
// 0 ≤ y < 2⁴⁰, which bounds the relative term and makes int(y) the
// floor; u ≥ 1 yields y ≤ 0 and falls back. The caller checks that u is
// normal: subnormals break the exponent/mantissa split, and u = 0, u < 0
// and NaN fail the comparison.
func (w skipWalk) exactFloor(y float64) (int, bool) {
	if !(y >= 0 && y < 0x1p40) {
		return 0, false
	}
	s := int(y)
	frac := y - float64(s)
	margin := w.tol + y*0x1p-45
	return s, frac > margin && 1-frac > margin
}

// skipFromUniform inverts the geometric CDF at the uniform sample u: the
// number of absent edges before the next present one when each edge is
// present independently with probability p, given logq = log(1−p). It
// is the exact expression, which skipWalk.skip reproduces bit for bit and
// falls back to when its guard fails.
func skipFromUniform(u, logq float64) int {
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	skip := int(math.Floor(math.Log(u) / logq))
	if skip < 0 {
		skip = 0
	}
	return skip
}
