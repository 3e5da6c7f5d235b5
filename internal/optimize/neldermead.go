// Package optimize implements the Nelder–Mead downhill-simplex method for
// unconstrained function minimization (Nelder & Mead, Computer Journal 1965),
// the method the paper cites ([23]) for fitting network coordinates: mapping
// landmark distance matrices into a geometric space and placing ordinary
// proxies relative to the landmarks.
package optimize

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// Objective is a function to be minimized. Implementations must not retain
// or mutate the argument slice.
type Objective func(x []float64) float64

// Options configures a Nelder–Mead run. The zero value picks reasonable
// defaults via (*Options).withDefaults.
type Options struct {
	// MaxIter bounds the number of simplex iterations (default 2000·dim).
	MaxIter int
	// Tolerance stops the search when the relative spread of function
	// values across the simplex falls below it (default 1e-9).
	Tolerance float64
	// InitialStep is the displacement used to build the initial simplex
	// around the starting point (default 1.0).
	InitialStep float64
	// Restarts re-runs the simplex from the best point found, rebuilding
	// the simplex, to escape premature collapse (default 2).
	Restarts int
}

func (o Options) withDefaults(dim int) Options {
	if o.MaxIter <= 0 {
		o.MaxIter = 2000 * dim
	}
	if o.Tolerance <= 0 {
		o.Tolerance = 1e-9
	}
	if o.InitialStep == 0 {
		o.InitialStep = 1.0
	}
	if o.Restarts < 0 {
		o.Restarts = 0
	}
	return o
}

// Result reports the outcome of a minimization.
type Result struct {
	// X is the best point found.
	X []float64
	// F is the objective value at X.
	F float64
	// Iterations is the total number of simplex iterations performed.
	Iterations int
	// Converged reports whether the tolerance criterion was met (as
	// opposed to stopping on the iteration budget).
	Converged bool
}

// Standard Nelder–Mead coefficients.
const (
	reflectCoeff  = 1.0
	expandCoeff   = 2.0
	contractCoeff = 0.5
	shrinkCoeff   = 0.5
)

// Minimize runs Nelder–Mead from x0 and returns the best point found.
// It returns an error when x0 is empty or f returns NaN at the start.
func Minimize(f Objective, x0 []float64, opts Options) (Result, error) {
	dim := len(x0)
	if dim == 0 {
		return Result{}, errors.New("optimize: empty starting point")
	}
	if f == nil {
		return Result{}, errors.New("optimize: nil objective")
	}
	opts = opts.withDefaults(dim)

	start := append([]float64(nil), x0...)
	if v := f(start); math.IsNaN(v) {
		return Result{}, fmt.Errorf("optimize: objective is NaN at starting point %v", start)
	}

	best := Result{X: start, F: f(start)}
	totalIter := 0
	step := opts.InitialStep
	for attempt := 0; attempt <= opts.Restarts; attempt++ {
		res := runSimplex(f, best.X, step, opts.MaxIter, opts.Tolerance)
		totalIter += res.Iterations
		if res.F < best.F {
			best = res
		}
		best.Converged = res.Converged
		// Restart with a smaller simplex around the incumbent.
		step *= 0.25
	}
	best.Iterations = totalIter
	return best, nil
}

// vertex couples a simplex point with its objective value.
type vertex struct {
	x []float64
	f float64
}

// byValue orders vertices by objective value, best first.
func byValue(a, b vertex) int {
	switch {
	case a.f < b.f:
		return -1
	case a.f > b.f:
		return 1
	}
	return 0
}

// runSimplex is one simplex run from x0. Everything it allocates it allocates
// before the first iteration: the dim+1 vertices and three work vectors. An
// iteration sorts the simplex in place and, where it replaces the worst
// vertex, swaps that vertex's vector with the work vector holding the new
// point.
//
//hfc:hotpath budget=8
func runSimplex(f Objective, x0 []float64, step float64, maxIter int, tol float64) Result {
	dim := len(x0)
	simplex := make([]vertex, dim+1)
	for i := range simplex {
		x := append([]float64(nil), x0...)
		if i > 0 {
			x[i-1] += step
		}
		simplex[i] = vertex{x: x, f: f(x)}
	}

	centroid := make([]float64, dim)
	trial := make([]float64, dim)
	spare := make([]float64, dim)
	iter := 0
	converged := false
	for ; iter < maxIter; iter++ {
		slices.SortFunc(simplex, byValue)
		lo, hi := simplex[0].f, simplex[dim].f
		if relativeSpread(lo, hi) < tol {
			converged = true
			break
		}

		// Centroid of all but the worst vertex.
		for j := range centroid {
			centroid[j] = 0
		}
		for i := 0; i < dim; i++ {
			for j, v := range simplex[i].x {
				centroid[j] += v
			}
		}
		for j := range centroid {
			centroid[j] /= float64(dim)
		}

		worst := &simplex[dim]
		// Reflection.
		affine(trial, centroid, worst.x, 1+reflectCoeff, -reflectCoeff)
		fr := f(trial)
		switch {
		case fr < simplex[0].f:
			// Expansion.
			affine(spare, centroid, worst.x, 1+expandCoeff, -expandCoeff)
			if fe := f(spare); fe < fr {
				worst.x, spare, worst.f = spare, worst.x, fe
			} else {
				worst.x, trial, worst.f = trial, worst.x, fr
			}
		case fr < simplex[dim-1].f:
			worst.x, trial, worst.f = trial, worst.x, fr
		default:
			// Contraction (outside or inside, toward the better of
			// reflected and worst).
			refX, refF := worst.x, worst.f
			if fr < worst.f {
				refX, refF = trial, fr
			}
			affine(spare, centroid, refX, 1-contractCoeff, contractCoeff)
			if fc := f(spare); fc < refF {
				worst.x, spare, worst.f = spare, worst.x, fc
			} else {
				// Shrink the whole simplex toward the best vertex.
				for i := 1; i <= dim; i++ {
					for j := range simplex[i].x {
						simplex[i].x[j] = simplex[0].x[j] + shrinkCoeff*(simplex[i].x[j]-simplex[0].x[j])
					}
					simplex[i].f = f(simplex[i].x)
				}
			}
		}
	}
	slices.SortFunc(simplex, byValue)
	return Result{
		X:          append([]float64(nil), simplex[0].x...),
		F:          simplex[0].f,
		Iterations: iter,
		Converged:  converged,
	}
}

// affine computes out = a·p + b·q element-wise.
func affine(out, p, q []float64, a, b float64) {
	for j := range out {
		out[j] = a*p[j] + b*q[j]
	}
}

// relativeSpread measures how far apart the best and worst simplex values
// are, normalized to their magnitude.
func relativeSpread(lo, hi float64) float64 {
	denom := math.Abs(lo) + math.Abs(hi)
	if denom < 1e-300 {
		return 0
	}
	return 2 * math.Abs(hi-lo) / denom
}
