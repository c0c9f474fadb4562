package regress

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// pooledFits fit one model kind the scratch pools serve and return
// its intercept followed by its coefficients.
var pooledFits = []struct {
	name string
	fit  func(x [][]float64, y []float64) ([]float64, error)
}{
	{"Lasso", func(x [][]float64, y []float64) ([]float64, error) {
		m := NewLasso()
		err := m.Fit(x, y)
		return append([]float64{m.Intercept()}, m.Coefficients()...), err
	}},
	{"Lasso/descent", func(x [][]float64, y []float64) ([]float64, error) {
		m := &Lasso{Alpha: 0}
		err := m.Fit(x, y)
		return append([]float64{m.Intercept()}, m.Coefficients()...), err
	}},
	{"LR", func(x [][]float64, y []float64) ([]float64, error) {
		m := NewLinear()
		err := m.Fit(x, y)
		return append([]float64{m.Intercept()}, m.Coefficients()...), err
	}},
	{"Ridge", func(x [][]float64, y []float64) ([]float64, error) {
		m := NewRidge()
		err := m.Fit(x, y)
		return append([]float64{m.linear.Intercept()}, m.Coefficients()...), err
	}},
}

// pooledWindow builds an n×p window with a zero column, so LR takes
// the pooled ridge path whatever the shape.
func pooledWindow(n, p int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = make([]float64, p)
		for j := 1; j < p; j++ {
			x[i][j] = rng.NormFloat64()
		}
		y[i] = 2*x[i][1] - x[i][p/2] + 0.5*rng.NormFloat64()
	}
	return x, y
}

// fitBits runs the k-th pooled fit on one window.
func fitBits(t *testing.T, k int, x [][]float64, y []float64) []float64 {
	got, err := pooledFits[k].fit(x, y)
	if err != nil {
		t.Errorf("%s: %v", pooledFits[k].name, err)
	}
	return got
}

// TestPooledFitsBitIdentical: fits whose scratch comes back from the
// pools dirty — poisoned with NaN, or left by a fit of another shape —
// give the coefficients of fits on freshly allocated scratch, bit for
// bit, interleaved on one goroutine and on several at once (run it
// under -cpu 1,4).
func TestPooledFitsBitIdentical(t *testing.T) {
	shapes := []struct{ n, p int }{{140, 60}, {50, 90}}
	xs, ys := make([][][]float64, len(shapes)), make([][]float64, len(shapes))
	for s, sh := range shapes {
		xs[s], ys[s] = pooledWindow(sh.n, sh.p, int64(s+1))
	}
	// Unpooled reference: two collections empty every sync.Pool, so
	// each reference fit allocates its scratch.
	want := make([][][]float64, len(shapes))
	for s := range shapes {
		want[s] = make([][]float64, len(pooledFits))
		for k := range pooledFits {
			runtime.GC()
			runtime.GC()
			want[s][k] = fitBits(t, k, xs[s], ys[s])
		}
	}
	for _, pool := range []*scratchPool{&lassoCols, &ridgeGram} {
		for range 4 {
			b := pool.get(200 * 200)
			for i := range *b {
				(*b)[i] = math.NaN()
			}
			pool.put(b)
		}
	}
	check := func(round int) {
		for s := range shapes {
			for k, f := range pooledFits {
				got := fitBits(t, k, xs[s], ys[s])
				if !sameBits(got, want[s][k]) {
					t.Errorf("round %d, %s on %dx%d: pooled fit differs from the unpooled one", round, f.name, shapes[s].n, shapes[s].p)
				}
			}
		}
	}
	for round := range 3 {
		check(round)
	}
	var wg sync.WaitGroup
	for g := range 2 * runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			check(100 + g)
		}()
	}
	wg.Wait()
}
