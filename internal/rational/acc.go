package rational

import (
	"math"
	"math/big"
)

// Acc is an exact arbitrary-precision rational accumulator.
//
// Rat deliberately restricts itself to int64 components, which is safe for
// per-task quantities (a task's lags and window bounds have denominators
// dividing its period). Sums across a task *set* — the Σ wt(T) of the
// feasibility condition (2) — have denominators near the lcm of all
// periods, which overflows int64 for realistic sets of hundreds of tasks
// with co-prime periods. Acc holds such sums exactly.
//
// An Acc has two representations. It starts as an int64 Rat, on which
// every operation is a few machine multiplies and a gcd; the first
// operation whose result (or any intermediate) overflows int64 promotes
// it to math/big, where it then stays. Promotion is invisible: every
// result — the value, String, Ceil, Rat, the comparisons and Float — is
// the one a big-only accumulator would give.
//
// The zero value is not usable; construct with NewAcc.
type Acc struct {
	r    Rat  // the value while !wide; its numerator is never MinInt64
	wide bool // the value lives in v
	v    big.Rat
}

// maxExactFloat is 2^53: every integer of at most this magnitude converts
// to float64 exactly.
const maxExactFloat = 1 << 53

// NewAcc returns an accumulator holding zero.
func NewAcc() *Acc { return &Acc{r: Rat{0, 1}} }

// promote moves the value to its math/big representation.
func (a *Acc) promote() {
	if !a.wide {
		a.v.SetFrac64(a.r.Num(), a.r.Den())
		a.wide = true
	}
}

// bigOf returns a's value as a big.Rat: its own when wide, else tmp set
// to it.
func (a *Acc) bigOf(tmp *big.Rat) *big.Rat {
	if a.wide {
		return &a.v
	}
	return tmp.SetFrac64(a.r.Num(), a.r.Den())
}

// Add adds r to the accumulator and returns it for chaining.
func (a *Acc) Add(r Rat) *Acc {
	if !a.wide {
		if s, ok := addSmall(a.r, r); ok {
			a.r = s
			return a
		}
		a.promote()
	}
	var t big.Rat
	t.SetFrac64(r.Num(), r.Den())
	a.v.Add(&a.v, &t)
	return a
}

// Sub subtracts r from the accumulator and returns it for chaining.
func (a *Acc) Sub(r Rat) *Acc {
	if !a.wide {
		if s, ok := addSmall(a.r, r.Neg()); ok {
			a.r = s
			return a
		}
		a.promote()
	}
	var t big.Rat
	t.SetFrac64(r.Num(), r.Den())
	a.v.Sub(&a.v, &t)
	return a
}

// AddAcc adds another accumulator's value.
func (a *Acc) AddAcc(b *Acc) *Acc {
	if !a.wide && !b.wide {
		if s, ok := addSmall(a.r, b.r); ok {
			a.r = s
			return a
		}
	}
	var t big.Rat
	y := b.bigOf(&t)
	a.promote()
	a.v.Add(&a.v, y)
	return a
}

// SubAcc subtracts another accumulator's value.
func (a *Acc) SubAcc(b *Acc) *Acc {
	if !a.wide && !b.wide {
		if s, ok := addSmall(a.r, b.r.Neg()); ok {
			a.r = s
			return a
		}
	}
	var t big.Rat
	y := b.bigOf(&t)
	a.promote()
	a.v.Sub(&a.v, y)
	return a
}

// MulRat multiplies the accumulator by r and returns it for chaining.
func (a *Acc) MulRat(r Rat) *Acc {
	if !a.wide {
		if p, ok := mulSmall(a.r, r); ok {
			a.r = p
			return a
		}
		a.promote()
	}
	var t big.Rat
	t.SetFrac64(r.Num(), r.Den())
	a.v.Mul(&a.v, &t)
	return a
}

// MulAcc multiplies by another accumulator's value.
func (a *Acc) MulAcc(b *Acc) *Acc {
	if !a.wide && !b.wide {
		if p, ok := mulSmall(a.r, b.r); ok {
			a.r = p
			return a
		}
	}
	var t big.Rat
	y := b.bigOf(&t)
	a.promote()
	a.v.Mul(&a.v, y)
	return a
}

// QuoAcc divides the accumulator by another accumulator's value. Like
// math/big, it panics on a zero divisor — a programmer error on par with
// integer division by zero.
func (a *Acc) QuoAcc(b *Acc) *Acc {
	if !a.wide && !b.wide && b.r.Sign() != 0 {
		d := b.r.normalized()
		if p, ok := mulSmall(a.r, Rat{d.den, d.num}.canon()); ok {
			a.r = p
			return a
		}
	}
	var t big.Rat
	y := b.bigOf(&t)
	a.promote()
	a.v.Quo(&a.v, y)
	return a
}

// SetInt sets the accumulator to the integer n and returns it.
func (a *Acc) SetInt(n int64) *Acc {
	if n == math.MinInt64 {
		a.wide = true
		a.v.SetInt64(n)
		return a
	}
	a.r, a.wide = FromInt(n), false
	return a
}

// Set copies another accumulator's value.
func (a *Acc) Set(b *Acc) *Acc {
	if b.wide {
		a.v.Set(&b.v)
	}
	a.r, a.wide = b.r, b.wide
	return a
}

// CmpAcc compares two accumulated values: −1 if a < b, 0 if equal, +1 if
// a > b.
func (a *Acc) CmpAcc(b *Acc) int {
	if !a.wide && !b.wide {
		return a.r.Cmp(b.r)
	}
	var x, y big.Rat
	return a.bigOf(&x).Cmp(b.bigOf(&y))
}

// Clone returns an independent copy.
func (a *Acc) Clone() *Acc { return NewAcc().Set(a) }

// Cmp compares the accumulated value with r: −1 if less, 0 if equal, +1 if
// greater.
func (a *Acc) Cmp(r Rat) int {
	if !a.wide {
		return a.r.Cmp(r)
	}
	var t big.Rat
	t.SetFrac64(r.Num(), r.Den())
	return a.v.Cmp(&t)
}

// CmpInt compares the accumulated value with the integer n.
func (a *Acc) CmpInt(n int64) int {
	if !a.wide {
		return a.r.Cmp(FromInt(n))
	}
	var t big.Rat
	t.SetInt64(n)
	return a.v.Cmp(&t)
}

// Sign returns the sign of the accumulated value.
func (a *Acc) Sign() int {
	if !a.wide {
		return a.r.Sign()
	}
	return a.v.Sign()
}

// Ceil returns ⌈value⌉. It panics if the result does not fit in int64
// (impossible for task-weight sums, which are bounded by the task count).
func (a *Acc) Ceil() int64 {
	if !a.wide {
		return a.r.Ceil()
	}
	num := a.v.Num()
	den := a.v.Denom()
	var q, m big.Int
	q.QuoRem(num, den, &m)
	if m.Sign() != 0 && num.Sign() > 0 {
		q.Add(&q, big.NewInt(1))
	}
	if !q.IsInt64() {
		panic("rational: Acc.Ceil overflows int64")
	}
	return q.Int64()
}

// Float returns the nearest float64 for reporting.
func (a *Acc) Float() float64 {
	if !a.wide {
		n, d := a.r.Num(), a.r.Den()
		if -maxExactFloat <= n && n <= maxExactFloat && d <= maxExactFloat {
			//pfair:allowfloat both operands convert exactly, so the IEEE quotient is the correctly rounded value big.Rat.Float64 returns
			return float64(n) / float64(d)
		}
	}
	var t big.Rat
	f, _ := a.bigOf(&t).Float64()
	return f
}

// String renders the exact value.
func (a *Acc) String() string {
	if !a.wide {
		return a.r.String()
	}
	return a.v.RatString()
}

// Rat returns the value as an int64 Rat if it fits, with ok reporting
// whether it did.
func (a *Acc) Rat() (r Rat, ok bool) {
	if !a.wide {
		return a.r.normalized(), true
	}
	if !a.v.Num().IsInt64() || !a.v.Denom().IsInt64() {
		return Zero(), false
	}
	return New(a.v.Num().Int64(), a.v.Denom().Int64()), true
}
