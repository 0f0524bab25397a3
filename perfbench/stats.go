package main

import (
	"math"
	"sort"
)

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// median is the middle order statistic of xs (the lower one for an even
// count; 0 when xs is empty). It suits a handful of values, such as the
// set-up times of one run, where one slow value must not pull it.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

// quantile is the Harrell-Davis estimate of the q-quantile of xs (0 when xs
// is empty): a weighted mean of all order statistics, the i-th weighted by
// the Beta((n+1)q, (n+1)(1-q)) mass on [(i-1)/n, i/n]. A single order
// statistic jumps when q falls where the values are sparse, as the p90 of
// cold-real's batch gaps does between its steady gaps and each epoch's
// ramp-up gaps; the weighted mean moves smoothly.
func quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	est, prev := 0.0, 0.0
	for i, x := range s {
		cdf := betaInc(a, b, float64(i+1)/float64(n))
		est += (cdf - prev) * x
		prev = cdf
	}
	return est
}

// betaInc is the regularized incomplete beta function I_x(a, b).
func betaInc(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(a*math.Log(x) + b*math.Log1p(-x) + lab - la - lb)
	// The continued fraction converges fast only below the mean; above it,
	// use the symmetry I_x(a, b) = 1 - I_{1-x}(b, a).
	if x < (a+1)/(a+b+2) {
		return front * betaFrac(a, b, x) / a
	}
	return 1 - front*betaFrac(b, a, 1-x)/b
}

// betaFrac evaluates the continued fraction of the incomplete beta function
// by the modified Lentz method.
func betaFrac(a, b, x float64) float64 {
	const tiny = 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m < 10000; m++ {
		num := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		h *= d * c
		num = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		step := d * c
		h *= step
		if math.Abs(step-1) < 1e-14 {
			break
		}
	}
	return h
}
