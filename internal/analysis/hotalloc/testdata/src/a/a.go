// Fixture exercising hotalloc: allocation inside annotated hot loops and
// bodies, plus the coldpath escape and the statement-level directive form.
package a

//distenc:hotpath
func hotKernel(xs []float64, out []float64) []float64 {
	buf := make([]float64, 8) // want `make allocates from the heap in a //distenc:hotpath body`
	for _, x := range xs {
		out = append(out, x)  // want `append inside a hot-path loop`
		tmp := make([]int, 4) // want `make inside a hot-path loop`
		_ = tmp
	}
	//distenc:coldpath -- emission loop, runs once per call
	for i := range buf {
		out = append(out, buf[i])
	}
	return out
}

// Un-annotated functions allocate freely.
func coldHelper(xs []float64) []float64 {
	var out []float64
	for _, x := range xs {
		out = append(out, x)
	}
	return out
}

// The directive also reaches func literals inside the annotated statement,
// the form the MTTKRP map/reduce closures use.
func statementForm(xs []int) func() {
	//distenc:hotpath
	fn := func() {
		for range xs {
			_ = new(int) // want `new inside a hot-path loop`
		}
	}
	return fn
}

// Outside loops, the arena rule still bites: scratch must come from the task
// arena, with two escapes — the amortized self-append idiom and an explicit
// coldpath waiver.
//
//distenc:hotpath
func hotEncoder(buf []byte, vals []float64) []byte {
	buf = append(buf, byte(len(vals))) // self-append: caller-owned buffer grows in place
	tmp := new(int)                    // want `new allocates from the heap in a //distenc:hotpath body`
	_ = tmp
	other := append(buf, 0) // want `append allocates from the heap in a //distenc:hotpath body`
	_ = other
	//distenc:coldpath -- result outlives the arena's reset cycle
	escape := make([]float64, len(vals))
	copy(escape, vals)
	return buf
}
