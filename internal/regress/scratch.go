package regress

import "sync"

// scratchPool recycles one kind of per-fit float scratch. An
// evaluation refits a model on every sliding window, each fit needing
// arrays of the same few shapes, so reusing them keeps a fit's
// allocation down to what the model retains. Each kind of scratch has
// its own pool, so a small array of one kind is never handed to a fit
// that needs a large one of another.
type scratchPool struct{ p sync.Pool }

// Pools of the two largest per-fit arrays: the Lasso's standardized
// n×p columns and the ridge solve's q×q normal equations.
var (
	lassoCols scratchPool
	ridgeGram scratchPool
)

// get returns an n-long slice with arbitrary contents: the caller must
// write every entry it reads. A pooled array too small for n is left
// to the garbage collector.
func (s *scratchPool) get(n int) *[]float64 {
	if b, _ := s.p.Get().(*[]float64); b != nil && cap(*b) >= n {
		*b = (*b)[:n]
		return b
	}
	b := make([]float64, n)
	return &b
}

// put returns b for reuse; the caller must not touch it afterwards.
func (s *scratchPool) put(b *[]float64) { s.p.Put(b) }
