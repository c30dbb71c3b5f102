package admission

import (
	"fmt"
	"strings"
	"testing"

	"pfair/internal/rational"
	"pfair/internal/task"
)

// Distinct primes above 10⁶. Summing 1/p over three or more of them
// outgrows int64, which promotes an accumulator to its math/big
// representation for good (internal/rational pins that promotion), so
// the "promoted" cases below run the tests on that representation even
// where the value they reach is small again.
var primes = []int64{1000003, 1000033, 1000037, 1000039, 1000081}

// utilizationCase is one accumulated Σwt, reached either within int64
// or through a promotion.
type utilizationCase struct {
	name  string
	total func() *rational.Acc // Σwt = m exactly
	m     int64
}

func utilizationCases() []utilizationCase {
	return []utilizationCase{
		{"int64", func() *rational.Acc {
			// Section 3's three weight-2/3 tasks: Σwt = 2.
			return rational.NewAcc().Add(rational.New(2, 3)).Add(rational.New(2, 3)).Add(rational.New(2, 3))
		}, 2},
		{"promoted", func() *rational.Acc {
			// 1/p + (p−1)/p per prime: the partial sums have
			// denominators near 10²⁴, the total is exactly 4.
			total := rational.NewAcc()
			for _, p := range primes[:4] {
				total.Add(rational.New(1, p))
			}
			for _, p := range primes[:4] {
				total.Add(rational.New(p-1, p))
			}
			return total
		}, 4},
	}
}

// TestUtilizationBoundary: Σwt = M is admitted (Equation (2) is ≤, not
// <), and M + 1/p is refused, on both representations.
func TestUtilizationBoundary(t *testing.T) {
	for _, tc := range utilizationCases() {
		total := tc.total()
		if err := Utilization(total, rational.Zero(), rational.Zero(), tc.m); err != nil {
			t.Errorf("%s: Σwt = M refused: %v", tc.name, err)
		}
		p := primes[4]
		err := Utilization(total, rational.New(1, p), rational.Zero(), tc.m)
		want := fmt.Sprintf("admission: utilization %d%s would exceed the capacity %d (Σwt ≤ %d)",
			tc.m*p+1, fmt.Sprintf("/%d", p), tc.m, tc.m)
		if err == nil || err.Error() != want {
			t.Errorf("%s: M + 1/p: err = %v, want %q", tc.name, err, want)
		}
		// A reweight that swaps equal weights stays at the boundary; one
		// that grows by 1/p crosses it.
		w := rational.New(2, 3)
		if err := Utilization(total, w, w, tc.m); err != nil {
			t.Errorf("%s: equal-weight swap at Σwt = M refused: %v", tc.name, err)
		}
		if err := Utilization(total, w.Add(rational.New(1, p)), w, tc.m); err == nil {
			t.Errorf("%s: growing a task by 1/p at Σwt = M admitted", tc.name)
		}
		// The inputs are not modified.
		if total.CmpInt(tc.m) != 0 {
			t.Errorf("%s: Utilization modified its total: %v", tc.name, total)
		}
	}
}

// TestUtilizationBelowCapacity: departures make room exactly.
func TestUtilizationBelowCapacity(t *testing.T) {
	for _, tc := range utilizationCases() {
		total := tc.total()
		leave := rational.New(1, primes[4])
		if err := Utilization(total, leave, leave, tc.m); err != nil {
			t.Errorf("%s: leave and rejoin of the same weight refused: %v", tc.name, err)
		}
		if err := Utilization(total, rational.New(1, 2), rational.Zero(), tc.m+1); err != nil {
			t.Errorf("%s: M + 1/2 ≤ M + 1 refused: %v", tc.name, err)
		}
	}
}

// hyperbolicSets returns sets whose Π(uᵢ+1) is exactly 2.
func hyperbolicSets() map[string]task.Set {
	// Primes above 2.5·10⁶: the product of three of them exceeds 2⁶³,
	// so Π (pᵢ+1)/pᵢ over them leaves int64 and promotes.
	ps := []int64{2500009, 2500021, 2500043}
	// The second half multiplies by cᵢ·pᵢ/(pᵢ+1) with c = 5/4, 4/3, 6/5,
	// whose product is 2; each factor is 1 + u for a task of
	// u = (pᵢ − k)/(k(pᵢ+1)), k = 4, 3, 5.
	ks := []int64{4, 3, 5}
	promoted := task.Set{}
	for i, p := range ps {
		promoted = append(promoted, task.MustNew(fmt.Sprintf("a%d", i), 1, p))
	}
	for i, p := range ps {
		k := ks[i]
		promoted = append(promoted, task.MustNew(fmt.Sprintf("b%d", i), p-k, k*(p+1)))
	}
	return map[string]task.Set{
		// (1 + 1/3)(1 + 1/2) = 2.
		"int64":    {task.MustNew("A", 1, 3), task.MustNew("B", 1, 2)},
		"promoted": promoted,
	}
}

// TestHyperbolicBoundary: a product of exactly 2 is admitted and one
// just above it refused, on both representations.
func TestHyperbolicBoundary(t *testing.T) {
	for name, set := range hyperbolicSets() {
		if err := Hyperbolic(set, nil); err != nil {
			t.Errorf("%s: Π(uᵢ+1) = 2 refused: %v", name, err)
		}
		// Admitting the last task into the rest is the same product.
		if err := Hyperbolic(set[:len(set)-1], set[len(set)-1]); err != nil {
			t.Errorf("%s: admitting the last task at Π = 2 refused: %v", name, err)
		}
		extra := task.MustNew("x", 1, 1000000007)
		err := Hyperbolic(set, extra)
		if err == nil {
			t.Errorf("%s: Π(uᵢ+1) = 2·(1 + 1/1000000007) admitted", name)
			continue
		}
		want := "admission: admitting x(1/1000000007) fails the hyperbolic RM bound: Π(uᵢ+1) = 2000000016/1000000007 > 2"
		if err.Error() != want {
			t.Errorf("%s: err = %q, want %q", name, err, want)
		}
	}
}

// TestHyperbolicWholeSetError names the set, not a joiner, when add is
// nil.
func TestHyperbolicWholeSetError(t *testing.T) {
	err := Hyperbolic(task.Set{task.MustNew("A", 1, 2), task.MustNew("B", 1, 2)}, nil)
	if err == nil || !strings.Contains(err.Error(), "the set fails the hyperbolic RM bound: Π(uᵢ+1) = 9/4 > 2") {
		t.Errorf("err = %v", err)
	}
}
