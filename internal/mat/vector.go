package mat

import "math"

// Dot returns the inner product of x and y. Panics if lengths differ.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("mat: Dot length mismatch")
	}
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// Axpy sets y[i] += a*x[i] for all i.
func Axpy(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic("mat: Axpy length mismatch")
	}
	for i, v := range x {
		y[i] += a * v
	}
}

// ScaleVec multiplies x by s in place.
func ScaleVec(s float64, x []float64) {
	for i := range x {
		x[i] *= s
	}
}

// Normalize scales x to unit Euclidean norm in place and returns the original
// norm. A zero vector is left unchanged and 0 is returned.
func Normalize(x []float64) float64 {
	n := Norm2(x)
	if n == 0 {
		return 0
	}
	ScaleVec(1/n, x)
	return n
}
