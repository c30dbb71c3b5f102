package rational

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAccBasics(t *testing.T) {
	a := NewAcc()
	if a.Sign() != 0 {
		t.Error("fresh Acc not zero")
	}
	a.Add(New(1, 2)).Add(New(1, 3)).Add(New(1, 6))
	if a.CmpInt(1) != 0 {
		t.Errorf("1/2+1/3+1/6 = %v, want 1", a)
	}
	if a.Sign() != 1 {
		t.Error("positive Acc sign mismatch")
	}
	a.Sub(New(3, 2))
	if a.Cmp(New(-1, 2)) != 0 {
		t.Errorf("after Sub: %v, want -1/2", a)
	}
	if a.Sign() != -1 {
		t.Error("negative Acc sign mismatch")
	}
	if a.String() != "-1/2" {
		t.Errorf("String = %q", a.String())
	}
}

func TestAccCeilFloatClone(t *testing.T) {
	a := NewAcc().Add(New(7, 3)) // 2.333…
	if got := a.Ceil(); got != 3 {
		t.Errorf("Ceil = %d, want 3", got)
	}
	if f := a.Float(); f < 2.33 || f > 2.34 {
		t.Errorf("Float = %v", f)
	}
	b := a.Clone()
	b.Add(One())
	if a.Cmp(New(7, 3)) != 0 {
		t.Error("Clone is not independent")
	}
	if b.Cmp(New(10, 3)) != 0 {
		t.Errorf("clone+1 = %v, want 10/3", b)
	}
	// Negative and integer ceilings.
	if got := NewAcc().Sub(New(7, 3)).Ceil(); got != -2 {
		t.Errorf("Ceil(-7/3) = %d, want -2", got)
	}
	if got := NewAcc().Add(FromInt(5)).Ceil(); got != 5 {
		t.Errorf("Ceil(5) = %d, want 5", got)
	}
}

func TestAccAddAcc(t *testing.T) {
	a := NewAcc().Add(New(1, 3))
	b := NewAcc().Add(New(2, 3))
	a.AddAcc(b)
	if a.CmpInt(1) != 0 {
		t.Errorf("AddAcc = %v, want 1", a)
	}
}

func TestAccRatRoundTrip(t *testing.T) {
	a := NewAcc().Add(New(8, 11)).Sub(New(1, 11))
	r, ok := a.Rat()
	if !ok || !r.Equal(New(7, 11)) {
		t.Errorf("Rat = %v (%v)", r, ok)
	}
	// A sum whose reduced denominator exceeds int64 does not fit: build
	// one from many co-prime denominators.
	big := NewAcc()
	for _, p := range []int64{1000003, 1000033, 1000037, 1000039, 1000081, 1000099, 1000117, 1000121} {
		big.Add(New(1, p))
	}
	if _, ok := big.Rat(); ok {
		t.Error("astronomical denominator claimed to fit in int64")
	}
	if big.Sign() != 1 || big.CmpInt(1) >= 0 {
		t.Error("big sum out of expected range")
	}
}

// TestQuickAccMatchesRat: on moderate inputs Acc arithmetic agrees with
// the int64 Rat arithmetic.
func TestQuickAccMatchesRat(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		acc := NewAcc()
		sum := Zero()
		for i := 0; i < 12; i++ {
			x := New(r.Int63n(2001)-1000, r.Int63n(50)+1)
			acc.Add(x)
			sum = sum.Add(x)
		}
		if acc.Cmp(sum) != 0 {
			return false
		}
		got, ok := acc.Rat()
		return ok && got.Equal(sum)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickAccCeilMatchesRatCeil: Ceil agrees with Rat.Ceil on values that
// fit.
func TestQuickAccCeilMatchesRatCeil(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x := New(r.Int63n(200001)-100000, r.Int63n(1000)+1)
		return NewAcc().Add(x).Ceil() == x.Ceil()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// checkAcc asserts that every observable result of a matches the pure
// math/big value want: the value, String and %v, Ceil, Rat, Sign, the
// comparisons and Float.
func checkAcc(t *testing.T, ctx string, a *Acc, want *big.Rat) {
	t.Helper()
	if got := a.String(); got != want.RatString() {
		t.Fatalf("%s: String = %s, want %s", ctx, got, want.RatString())
	}
	if got := fmt.Sprintf("%v", a); got != want.RatString() {
		t.Fatalf("%s: %%v = %s, want %s", ctx, got, want.RatString())
	}
	wf, _ := want.Float64()
	if got := a.Float(); got != wf {
		t.Fatalf("%s: Float = %v, want %v", ctx, got, wf)
	}
	if got := a.Sign(); got != want.Sign() {
		t.Fatalf("%s: Sign = %d, want %d", ctx, got, want.Sign())
	}
	var q, m big.Int
	q.QuoRem(want.Num(), want.Denom(), &m)
	if m.Sign() != 0 && want.Num().Sign() > 0 {
		q.Add(&q, big.NewInt(1))
	}
	if q.IsInt64() {
		if got := a.Ceil(); got != q.Int64() {
			t.Fatalf("%s: Ceil = %d, want %d", ctx, got, q.Int64())
		}
		for _, n := range []int64{q.Int64() - 1, q.Int64(), q.Int64() + 1} {
			if got, w := a.CmpInt(n), want.Cmp(new(big.Rat).SetInt64(n)); got != w {
				t.Fatalf("%s: CmpInt(%d) = %d, want %d", ctx, n, got, w)
			}
		}
	}
	fits := want.Num().IsInt64() && want.Denom().IsInt64()
	r, ok := a.Rat()
	if ok != fits {
		t.Fatalf("%s: Rat ok = %v, want %v", ctx, ok, fits)
	}
	if ok && (r.Num() != want.Num().Int64() || r.Den() != want.Denom().Int64()) {
		t.Fatalf("%s: Rat = %v, want %s", ctx, r, want.RatString())
	}
	for _, x := range []Rat{Zero(), One(), New(1, 3), New(-7, 2), New(1<<62, 3)} {
		if got, w := a.Cmp(x), want.Cmp(big.NewRat(x.Num(), x.Den())); got != w {
			t.Fatalf("%s: Cmp(%v) = %d, want %d", ctx, x, got, w)
		}
	}
	var other Acc
	other.v.Set(want)
	other.wide = true
	if got := a.CmpAcc(&other); got != 0 {
		t.Fatalf("%s: CmpAcc(wide copy of itself) = %d", ctx, got)
	}
}

// primesAbove returns the first n primes greater than lo.
func primesAbove(lo int64, n int) []int64 {
	var ps []int64
	for p := lo + 1; len(ps) < n; p++ {
		prime := true
		for d := int64(2); d*d <= p; d++ {
			if p%d == 0 {
				prime = false
				break
			}
		}
		if prime {
			ps = append(ps, p)
		}
	}
	return ps
}

// TestAccPromotionMirrorsBig: Σ 1/p over the first 30 primes above 10⁶
// outgrows int64 after three terms; every observable result before and
// after the promotion matches a pure big.Rat, and so does unwinding the
// sum back to zero.
func TestAccPromotionMirrorsBig(t *testing.T) {
	ps := primesAbove(1000000, 30)
	a := NewAcc()
	want := new(big.Rat)
	promoted := -1
	for i, p := range ps {
		a.Add(New(1, p))
		want.Add(want, big.NewRat(1, p))
		if a.wide && promoted < 0 {
			promoted = i
		}
		checkAcc(t, fmt.Sprintf("Σ 1/p after %d terms", i+1), a, want)
	}
	if promoted < 1 {
		t.Fatalf("promotion at term %d; the sum should start in int64 and outgrow it", promoted)
	}
	for i, p := range ps {
		a.Sub(New(1, p))
		want.Sub(want, big.NewRat(1, p))
		checkAcc(t, fmt.Sprintf("unwinding term %d", i+1), a, want)
	}
	if a.Sign() != 0 {
		t.Fatalf("unwound sum = %v, want 0", a)
	}
}

// TestAccOpsMirrorBig drives random sequences of every operation,
// with operands large enough to promote midway, against pure big.Rat.
func TestAccOpsMirrorBig(t *testing.T) {
	r := rand.New(rand.NewSource(7919))
	operand := func() Rat {
		switch r.Intn(4) {
		case 0:
			return New(r.Int63n(1<<40)-1<<39, 1+r.Int63n(1<<40))
		case 1:
			return New(r.Int63()-r.Int63(), 1+r.Int63())
		default:
			return New(r.Int63n(201)-100, 1+r.Int63n(1000))
		}
	}
	toBig := func(x Rat) *big.Rat { return big.NewRat(x.Num(), x.Den()) }
	for seq := 0; seq < 300; seq++ {
		a, b := NewAcc(), NewAcc()
		wa, wb := new(big.Rat), new(big.Rat)
		for step := 0; step < 12; step++ {
			x := operand()
			op := r.Intn(9)
			switch op {
			case 0:
				a.Add(x)
				wa.Add(wa, toBig(x))
			case 1:
				a.Sub(x)
				wa.Sub(wa, toBig(x))
			case 2:
				a.MulRat(x)
				wa.Mul(wa, toBig(x))
			case 3:
				b.Add(x)
				wb.Add(wb, toBig(x))
			case 4:
				a.AddAcc(b)
				wa.Add(wa, wb)
			case 5:
				a.SubAcc(b)
				wa.Sub(wa, wb)
			case 6:
				a.MulAcc(b)
				wa.Mul(wa, wb)
			case 7:
				if wb.Sign() != 0 {
					a.QuoAcc(b)
					wa.Quo(wa, wb)
				}
			case 8:
				a.SetInt(x.Num())
				wa.SetInt64(x.Num())
			}
			ctx := fmt.Sprintf("seq %d step %d (op %d, x = %v)", seq, step, op, x)
			checkAcc(t, ctx, a, wa)
			checkAcc(t, ctx+" [b]", b, wb)
			if got, w := a.CmpAcc(b), wa.Cmp(wb); got != w {
				t.Fatalf("%s: CmpAcc = %d, want %d", ctx, got, w)
			}
		}
	}
}

// TestAccFloatAbove2to53: Float stays correctly rounded when an int64
// component exceeds 2^53, where converting it to float64 first would
// round twice.
func TestAccFloatAbove2to53(t *testing.T) {
	cases := []Rat{
		New(1<<53+1, 1),
		New(1<<53+1, 3),
		New(-(1<<53 + 1), 7),
		New(1, 1<<53+1),
		New(3, 1<<60+1),
		New(1<<62+1, 1<<61+3),
		New(1<<53, 1<<53-1),
		New(-(1 << 53), 3),
	}
	for _, x := range cases {
		a := NewAcc().Add(x)
		if a.wide {
			t.Fatalf("%v promoted; the case must exercise the int64 representation", x)
		}
		checkAcc(t, x.String(), a, big.NewRat(x.Num(), x.Den()))
	}
	// A value whose naive float64(num)/float64(den) differs from the
	// correctly rounded quotient.
	x := New(1<<62+1, 1<<53+1)
	naive := float64(x.Num()) / float64(x.Den())
	want, _ := big.NewRat(x.Num(), x.Den()).Float64()
	if got := NewAcc().Add(x).Float(); got != want {
		t.Errorf("Float(%v) = %v, want %v (naive division gives %v)", x, got, want, naive)
	}
}

// TestAccCloneSetIndependent: Clone and Set copy the value, never share
// it, whichever representation either side holds.
func TestAccCloneSetIndependent(t *testing.T) {
	ps := primesAbove(1000000, 4)
	wideAcc := func() *Acc {
		a := NewAcc()
		for _, p := range ps {
			a.Add(New(1, p))
		}
		if !a.wide {
			t.Fatal("sum of four 1/p did not promote")
		}
		return a
	}
	for _, tc := range []struct {
		name string
		src  func() *Acc
	}{
		{"int64", func() *Acc { return NewAcc().Add(New(2, 3)) }},
		{"wide", wideAcc},
	} {
		src := tc.src()
		want := src.String()
		c := src.Clone()
		var s Acc
		s.Set(src)
		dst := wideAcc().Set(src) // Set into a wide receiver
		// Mutating the source, including promoting it, leaves the copies.
		src.Add(New(1, 1000003)).Add(New(1, 1000033)).MulRat(New(5, 7))
		for name, cp := range map[string]*Acc{"Clone": c, "Set": &s, "Set into wide": dst} {
			if cp.String() != want {
				t.Errorf("%s: %s copy changed to %v, want %s", tc.name, name, cp, want)
			}
			// Mutating the copy leaves a fresh copy of the source alone.
			snap := src.String()
			cp.Add(New(1, 1000037))
			if src.String() != snap {
				t.Errorf("%s: mutating the %s copy changed the source", tc.name, name)
			}
		}
	}
}

// TestAccErrorText: an Acc renders in %v exactly as the big-only
// accumulator did, so the admission errors that embed it are unchanged.
func TestAccErrorText(t *testing.T) {
	for _, tc := range []struct {
		a    *Acc
		want string
	}{
		{NewAcc(), "0"},
		{NewAcc().SetInt(3), "3"},
		{NewAcc().Add(New(5, 2)), "5/2"},
		{NewAcc().Sub(New(1, 2)), "-1/2"},
		{NewAcc().Add(New(1, 1000003)).Add(New(1, 1000033)).Add(New(1, 1000037)).Add(New(1, 1000039)),
			"4000336008556059472/1000112004278059472142857"},
	} {
		if got := fmt.Errorf("utilization %v", tc.a).Error(); got != "utilization "+tc.want {
			t.Errorf("got %q, want %q", got, "utilization "+tc.want)
		}
	}
}
