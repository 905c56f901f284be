// Fixture exercising floatcmp: the flagged exact comparisons and every
// allowed form. roundTripEqual is a regression fixture mirroring the pre-fix
// binary round-trip test (binaryio_test.go), which compared decoded values
// with != instead of comparing bit patterns.
package a

import "math"

const eps = 1e-9

func compare(a, b float64) int {
	if a == b { // want `exact == between floats`
		return 0
	}
	if a != b { // want `exact != between floats`
		return 1
	}
	if a == 0 { // comparing against a constant is exact by construction
		return 2
	}
	if a != a { // the NaN idiom
		return 3
	}
	if math.Float64bits(a) == math.Float64bits(b) { // integer comparison
		return 4
	}
	if math.Abs(a-b) <= eps { // the tolerance form the solver uses
		return 5
	}
	return 6
}

// reviewed carries the function-level waiver.
//
//distenc:floatcmp-ok -- fixture: reviewed exact comparison
func reviewed(xs []float64) bool {
	return xs[0] == xs[1]
}

func roundTripEqual(before, after []float64) bool {
	for i := range before {
		if after[i] != before[i] { // want `exact != between floats`
			return false
		}
	}
	return true
}
