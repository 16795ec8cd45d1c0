package parmvn

import (
	"fmt"
	"math"
)

// validateQuery is the one validator of an (a,b) integration box: eval runs
// it for every query entry point and the serving layer through ValidateQuery,
// so every path accepts exactly the same inputs and rejects the rest with
// identical errors.
//
// It rejects a zero-dimensional problem, mis-sized limit vectors and NaN
// limits (±Inf is the ordinary way to express half-open boxes and is fine).
// A box with a[i] ≥ b[i] somewhere is not an error: it has measure zero or
// is empty, so the query's probability is exactly 0 and the caller returns
// that without factorizing anything — empty is the report.
func validateQuery(n int, a, b []float64) (empty bool, err error) {
	if err := validateDim(n); err != nil {
		return false, err
	}
	if len(a) != n || len(b) != n {
		return false, fmt.Errorf("parmvn: limits length (%d,%d) != dimension %d", len(a), len(b), n)
	}
	for i := range a {
		if math.IsNaN(a[i]) || math.IsNaN(b[i]) {
			return false, fmt.Errorf("parmvn: limit %d is NaN", i)
		}
		if a[i] >= b[i] {
			empty = true
		}
	}
	return empty, nil
}

// validateDim rejects a zero-dimensional problem, for queries and the
// factor-only calls alike.
func validateDim(n int) error {
	if n <= 0 {
		return fmt.Errorf("parmvn: empty problem (dimension %d)", n)
	}
	return nil
}

// ValidateQuery reports whether (a,b) is a usable integration box for an
// n-dimensional query, with exactly the acceptance rules of the query entry
// points, so a serving layer can reject a malformed request before routing
// it. An empty box (some a[i] ≥ b[i]) is valid — its probability is 0.
func ValidateQuery(n int, a, b []float64) error {
	_, err := validateQuery(n, a, b)
	return err
}

// EmptyQuery reports whether a (pre-validated) box is empty — some
// a[i] ≥ b[i] — in which case its probability is exactly 0 and a serving
// layer can answer without touching (or building) the factor, just as the
// query entry points do.
func EmptyQuery(a, b []float64) bool {
	for i := range a {
		if a[i] >= b[i] {
			return true
		}
	}
	return false
}

// validateNu is the shared degrees-of-freedom check of the MVT entry points
// (NaN fails the positivity test like any non-positive value).
func validateNu(nu float64) error {
	if !(nu > 0) || math.IsInf(nu, 1) {
		return fmt.Errorf("parmvn: degrees of freedom %g must be positive and finite", nu)
	}
	return nil
}
