// Package rat implements exact non-negative rational arithmetic for
// plausibility indices and thresholds.
//
// The paper defines plausibility indices as functions into the rational
// interval [0, 1] (Definition 2.5) and thresholds as rationals 0 <= k < 1
// encoded as pairs of naturals (Lemma 3.39). Floating point would make
// strict threshold comparisons (I > k) unsound, so all index values in this
// module are exact ratios of int64 counts. Comparisons cross-multiply in
// 128-bit arithmetic via math/bits, so they never overflow.
package rat

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"
)

// Rat is an exact non-negative rational number. The zero value is 0.
//
// Rat is a small value type: pass it by value. Denominators are always
// positive after normalization; a zero numerator normalizes to 0/1.
type Rat struct {
	num, den int64
}

// Zero is the rational 0.
var Zero = Rat{0, 1}

// One is the rational 1.
var One = Rat{1, 1}

// New returns the rational num/den in lowest terms.
// It panics if den == 0 or if either argument is negative: index values and
// thresholds in this module are counts, which are never negative.
func New(num, den int64) Rat {
	if den == 0 {
		panic("rat: zero denominator")
	}
	if num < 0 || den < 0 {
		panic("rat: negative component")
	}
	if num == 0 {
		return Rat{0, 1}
	}
	g := gcd(num, den)
	return Rat{num / g, den / g}
}

// FromInt returns the rational n/1.
func FromInt(n int64) Rat { return New(n, 1) }

// Parse parses a rational from one of the forms "a/b", "0.75", or "1".
// Decimal forms are converted exactly (e.g. "0.93" becomes 93/100).
func Parse(s string) (Rat, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return Zero, fmt.Errorf("rat: empty string")
	}
	if strings.ContainsAny(s, "-+") {
		return Zero, fmt.Errorf("rat: signed rational %q not allowed", s)
	}
	if i := strings.IndexByte(s, '/'); i >= 0 {
		num, err := strconv.ParseInt(s[:i], 10, 64)
		if err != nil {
			return Zero, fmt.Errorf("rat: bad numerator in %q: %v", s, err)
		}
		den, err := strconv.ParseInt(s[i+1:], 10, 64)
		if err != nil {
			return Zero, fmt.Errorf("rat: bad denominator in %q: %v", s, err)
		}
		if den == 0 {
			return Zero, fmt.Errorf("rat: zero denominator in %q", s)
		}
		if num < 0 || den < 0 {
			return Zero, fmt.Errorf("rat: negative rational %q", s)
		}
		return New(num, den), nil
	}
	if i := strings.IndexByte(s, '.'); i >= 0 {
		whole, frac := s[:i], s[i+1:]
		if whole == "" {
			whole = "0"
		}
		w, err := strconv.ParseInt(whole, 10, 64)
		if err != nil {
			return Zero, fmt.Errorf("rat: bad number %q: %v", s, err)
		}
		if frac == "" {
			return New(w, 1), nil
		}
		f, err := strconv.ParseInt(frac, 10, 64)
		if err != nil {
			return Zero, fmt.Errorf("rat: bad number %q: %v", s, err)
		}
		den := int64(1)
		for range frac {
			if den > 1<<55 {
				return Zero, fmt.Errorf("rat: too many decimal digits in %q", s)
			}
			den *= 10
		}
		if w < 0 || f < 0 {
			return Zero, fmt.Errorf("rat: negative rational %q", s)
		}
		return New(w*den+f, den), nil
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return Zero, fmt.Errorf("rat: bad number %q: %v", s, err)
	}
	if n < 0 {
		return Zero, fmt.Errorf("rat: negative rational %q", s)
	}
	return New(n, 1), nil
}

// MustParse is like Parse but panics on error. It is intended for
// compile-time-constant thresholds in tests and examples.
func MustParse(s string) Rat {
	r, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return r
}

// Num returns the numerator in lowest terms.
func (r Rat) Num() int64 { return r.norm().num }

// Den returns the denominator in lowest terms (always >= 1).
func (r Rat) Den() int64 { return r.norm().den }

// norm maps the zero value {0,0} onto the canonical 0/1.
func (r Rat) norm() Rat {
	if r.den == 0 {
		return Rat{0, 1}
	}
	return r
}

// IsZero reports whether r == 0.
func (r Rat) IsZero() bool { return r.norm().num == 0 }

// Float64 returns the nearest float64, for display only.
func (r Rat) Float64() float64 {
	r = r.norm()
	return float64(r.num) / float64(r.den)
}

// String formats r as "num/den", or "0" / "1" for those exact values.
func (r Rat) String() string {
	var buf [41]byte
	return string(r.AppendTo(buf[:0]))
}

// AppendTo appends the String rendering of r to dst and returns the
// extended slice.
func (r Rat) AppendTo(dst []byte) []byte {
	r = r.norm()
	switch {
	case r.num == 0:
		return append(dst, '0')
	case r.num == r.den:
		return append(dst, '1')
	default:
		dst = strconv.AppendInt(dst, r.num, 10)
		dst = append(dst, '/')
		return strconv.AppendInt(dst, r.den, 10)
	}
}

// Cmp compares r and s, returning -1, 0, or +1. The comparison
// cross-multiplies in 128 bits, so it is exact for all int64 components.
func (r Rat) Cmp(s Rat) int {
	r, s = r.norm(), s.norm()
	hi1, lo1 := bits.Mul64(uint64(r.num), uint64(s.den))
	hi2, lo2 := bits.Mul64(uint64(s.num), uint64(r.den))
	switch {
	case hi1 != hi2:
		if hi1 < hi2 {
			return -1
		}
		return 1
	case lo1 != lo2:
		if lo1 < lo2 {
			return -1
		}
		return 1
	}
	return 0
}

// Greater reports whether r > s. This is the strict threshold test
// "I(σ(MQ)) > k" used throughout the paper.
func (r Rat) Greater(s Rat) bool { return r.Cmp(s) > 0 }

// Less reports whether r < s.
func (r Rat) Less(s Rat) bool { return r.Cmp(s) < 0 }

// Equal reports whether r == s as rationals.
func (r Rat) Equal(s Rat) bool { return r.Cmp(s) == 0 }

// Max returns the larger of r and s.
func Max(r, s Rat) Rat {
	if r.Cmp(s) >= 0 {
		return r.norm()
	}
	return s.norm()
}

// Mul returns r*s in lowest terms. It panics on overflow, which cannot
// happen for index values (both factors in [0,1]) but guards misuse.
func (r Rat) Mul(s Rat) Rat {
	r, s = r.norm(), s.norm()
	// Reduce cross factors first to keep products small.
	g1 := gcd64(r.num, s.den)
	g2 := gcd64(s.num, r.den)
	n1, d2 := r.num/g1, s.den/g1
	n2, d1 := s.num/g2, r.den/g2
	num, okN := mul64(n1, n2)
	den, okD := mul64(d1, d2)
	if !okN || !okD {
		panic("rat: multiplication overflow")
	}
	return New(num, den)
}

// Sub returns r-s. It panics if the result would be negative.
func (r Rat) Sub(s Rat) Rat {
	r, s = r.norm(), s.norm()
	if r.Cmp(s) < 0 {
		panic("rat: negative subtraction result")
	}
	// r - s = (r.num*s.den - s.num*r.den) / (r.den*s.den)
	a, okA := mul64(r.num, s.den)
	b, okB := mul64(s.num, r.den)
	d, okD := mul64(r.den, s.den)
	if !okA || !okB || !okD {
		panic("rat: subtraction overflow")
	}
	return New(a-b, d)
}

func mul64(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	if hi != 0 || lo > uint64(1)<<62 {
		return 0, false
	}
	return int64(lo), true
}

func gcd(a, b int64) int64 { return gcd64(a, b) }

func gcd64(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	if a == 0 {
		return 1
	}
	return a
}
