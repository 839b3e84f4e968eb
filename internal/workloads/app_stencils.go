package workloads

import (
	"fmt"
	"math"
	"math/rand"

	"uvmasim/internal/cuda"
	"uvmasim/internal/kernels"
)

// This file holds the two iterative 2D-stencil applications: srad
// (speckle-reducing anisotropic diffusion, Rodinia) and hotspot (thermal
// simulation, Rodinia). Both are regular, prefetch-friendly workloads.

// --- srad ----------------------------------------------------------------

// sradIteration performs one SRAD update on image J (n x n, row-major)
// with diffusion parameter lambda, returning the updated image. It
// mirrors Rodinia's two-kernel structure: first compute directional
// derivatives and the diffusion coefficient, then apply the divergence
// update.
func sradIteration(j []float32, n int, lambda float32) []float32 {
	cN := make([]float32, n*n)
	dN := make([]float32, n*n)
	dS := make([]float32, n*n)
	dW := make([]float32, n*n)
	dE := make([]float32, n*n)

	// Mean/variance of the image drive q0 (speckle scale).
	var sum, sum2 float64
	for _, v := range j {
		sum += float64(v)
		sum2 += float64(v) * float64(v)
	}
	mean := sum / float64(n*n)
	variance := sum2/float64(n*n) - mean*mean
	q0 := float32(variance / (mean * mean))

	at := func(i, k int) float32 {
		// Clamped (replicated) borders, as Rodinia does.
		if i < 0 {
			i = 0
		}
		if i >= n {
			i = n - 1
		}
		if k < 0 {
			k = 0
		}
		if k >= n {
			k = n - 1
		}
		return j[i*n+k]
	}
	// Kernel 1: derivatives and coefficient.
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			c := at(i, k)
			dN[i*n+k] = at(i-1, k) - c
			dS[i*n+k] = at(i+1, k) - c
			dW[i*n+k] = at(i, k-1) - c
			dE[i*n+k] = at(i, k+1) - c
			g2 := (dN[i*n+k]*dN[i*n+k] + dS[i*n+k]*dS[i*n+k] +
				dW[i*n+k]*dW[i*n+k] + dE[i*n+k]*dE[i*n+k]) / (c*c + 1e-12)
			l := (dN[i*n+k] + dS[i*n+k] + dW[i*n+k] + dE[i*n+k]) / (c + 1e-12)
			num := 0.5*g2 - (1.0/16.0)*l*l
			den := 1 + 0.25*l
			qsqr := num / (den*den + 1e-12)
			coef := 1 / (1 + (qsqr-q0)/(q0*(1+q0)+1e-12))
			if coef < 0 {
				coef = 0
			}
			if coef > 1 {
				coef = 1
			}
			cN[i*n+k] = coef
		}
	}
	// Kernel 2: divergence update.
	out := make([]float32, n*n)
	cAt := func(i, k int) float32 {
		if i < 0 {
			i = 0
		}
		if i >= n {
			i = n - 1
		}
		if k < 0 {
			k = 0
		}
		if k >= n {
			k = n - 1
		}
		return cN[i*n+k]
	}
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			div := cAt(i+1, k)*dS[i*n+k] + cAt(i, k)*dN[i*n+k] +
				cAt(i, k+1)*dE[i*n+k] + cAt(i, k)*dW[i*n+k]
			out[i*n+k] = j[i*n+k] + 0.25*lambda*div
		}
	}
	return out
}

type sradBench struct{}

func newSrad() Workload { return sradBench{} }

func (sradBench) Name() string   { return "srad" }
func (sradBench) Domain() string { return "image processing" }

func (sradBench) Run(ctx *cuda.Context, size Size) error {
	// J, four direction buffers and the coefficient grid: 6 grids.
	n := size.Dim2D(6)
	cells := n * n
	names := [...]string{"srad.J", "srad.dN", "srad.dS", "srad.dW", "srad.dE", "srad.c"}
	var bufs [len(names)]*cuda.Buffer
	for i, name := range names {
		b, err := ctx.Alloc(name, 4*cells)
		if err != nil {
			return err
		}
		bufs[i] = b
	}
	j := bufs[0]
	if err := ctx.Upload(j); err != nil {
		return err
	}
	const iters = 4
	for it := 0; it < iters; it++ {
		k1 := kernels.Stencil("srad_kernel1", cells, 5, 30)
		k1.StoreBytes = 4 * cells * 5 // four derivatives + coefficient
		k1.Flops = float64(cells) * 40
		if err := ctx.Launch(cuda.Launch{
			Spec:   k1,
			Reads:  []*cuda.Buffer{j},
			Writes: bufs[1:],
		}); err != nil {
			return err
		}
		k2 := kernels.Stencil("srad_kernel2", cells, 5, 16)
		k2.LoadBytes = 4 * cells * 5
		k2.LoadAccessBytes = 4 * cells * 7
		k2.Flops = float64(cells) * 10
		if err := ctx.Launch(cuda.Launch{
			Spec:   k2,
			Reads:  bufs[1:],
			Writes: []*cuda.Buffer{j},
		}); err != nil {
			return err
		}
	}
	ctx.Synchronize()
	if err := ctx.Consume(j); err != nil {
		return err
	}
	for _, b := range bufs {
		if err := ctx.Free(b); err != nil {
			return err
		}
	}
	return nil
}

func (sradBench) Validate() error {
	const n = 24
	rng := rand.New(rand.NewSource(9))
	// Speckled image: positive with multiplicative noise.
	img := make([]float32, n*n)
	for i := range img {
		img[i] = 1 + 0.4*rng.Float32()
	}
	variance := func(x []float32) float64 {
		var s, s2 float64
		for _, v := range x {
			s += float64(v)
			s2 += float64(v) * float64(v)
		}
		m := s / float64(len(x))
		return s2/float64(len(x)) - m*m
	}
	v0 := variance(img)
	cur := img
	for it := 0; it < 8; it++ {
		cur = sradIteration(cur, n, 0.5)
		for i, v := range cur {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				return fmt.Errorf("srad: non-finite value at %d after iteration %d", i, it)
			}
		}
	}
	// Diffusion must smooth speckle: variance strictly decreases.
	if v1 := variance(cur); v1 >= v0 {
		return fmt.Errorf("srad: variance did not decrease (%v -> %v)", v0, v1)
	}
	// A constant image is a fixed point.
	cons := make([]float32, n*n)
	for i := range cons {
		cons[i] = 2
	}
	out := sradIteration(cons, n, 0.5)
	for i := range out {
		if math.Abs(float64(out[i]-2)) > 1e-4 {
			return fmt.Errorf("srad: constant image not preserved at %d: %v", i, out[i])
		}
	}
	return nil
}

// --- hotspot -------------------------------------------------------------

// hotspotStep advances chip temperature temp (n x n) one time step given
// the per-cell dissipated power, with Rodinia's coefficient structure.
func hotspotStep(temp, power []float32, n int, cap, rx, ry, rz, ambient float32) []float32 {
	out := make([]float32, n*n)
	at := func(g []float32, i, k int) float32 {
		if i < 0 {
			i = 0
		}
		if i >= n {
			i = n - 1
		}
		if k < 0 {
			k = 0
		}
		if k >= n {
			k = n - 1
		}
		return g[i*n+k]
	}
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			c := temp[i*n+k]
			delta := (power[i*n+k] +
				(at(temp, i+1, k)+at(temp, i-1, k)-2*c)/ry +
				(at(temp, i, k+1)+at(temp, i, k-1)-2*c)/rx +
				(ambient-c)/rz) / cap
			out[i*n+k] = c + delta
		}
	}
	return out
}

type hotspotBench struct{}

func newHotspot() Workload { return hotspotBench{} }

func (hotspotBench) Name() string   { return "hotspot" }
func (hotspotBench) Domain() string { return "physics simulation" }

func (hotspotBench) Run(ctx *cuda.Context, size Size) error {
	// temperature + power + output grid.
	n := size.Dim2D(3)
	cells := n * n
	temp, err := ctx.Alloc("hotspot.temp", 4*cells)
	if err != nil {
		return err
	}
	power, err := ctx.Alloc("hotspot.power", 4*cells)
	if err != nil {
		return err
	}
	out, err := ctx.Alloc("hotspot.out", 4*cells)
	if err != nil {
		return err
	}
	for _, b := range []*cuda.Buffer{temp, power} {
		if err := ctx.Upload(b); err != nil {
			return err
		}
	}
	const steps = 6
	for s := 0; s < steps; s++ {
		spec := kernels.Stencil("hotspot", cells, 5, 20)
		spec.LoadBytes = 4 * cells * 2 // temperature + power
		spec.LoadAccessBytes = 4 * cells * 2 * 2
		spec.Flops = float64(cells) * 15
		if err := ctx.Launch(cuda.Launch{
			Spec:   spec,
			Reads:  []*cuda.Buffer{temp, power},
			Writes: []*cuda.Buffer{out},
		}); err != nil {
			return err
		}
		temp, out = out, temp // ping-pong
	}
	ctx.Synchronize()
	if err := ctx.Consume(temp); err != nil {
		return err
	}
	for _, b := range []*cuda.Buffer{temp, power, out} {
		if err := ctx.Free(b); err != nil {
			return err
		}
	}
	return nil
}

func (hotspotBench) Validate() error {
	// Coefficients satisfy the explicit scheme's stability condition
	// (2/rx + 2/ry + 1/rz)/cap < 1.
	const n = 20
	const cap, rx, ry, rz, ambient = 8.0, 1.0, 1.0, 4.0, 80.0
	rng := rand.New(rand.NewSource(10))

	// Zero power + uniform ambient temperature is a fixed point.
	temp := make([]float32, n*n)
	power := make([]float32, n*n)
	for i := range temp {
		temp[i] = ambient
	}
	out := hotspotStep(temp, power, n, cap, rx, ry, rz, ambient)
	for i := range out {
		if math.Abs(float64(out[i]-ambient)) > 1e-4 {
			return fmt.Errorf("hotspot: ambient equilibrium broken at %d: %v", i, out[i])
		}
	}

	// A single hot cell must heat its neighbors and cool itself.
	for i := range temp {
		temp[i] = ambient
	}
	mid := (n/2)*n + n/2
	temp[mid] = ambient + 40
	out = hotspotStep(temp, power, n, cap, rx, ry, rz, ambient)
	if out[mid] >= temp[mid] {
		return fmt.Errorf("hotspot: hot cell did not cool (%v -> %v)", temp[mid], out[mid])
	}
	if out[mid+1] <= ambient || out[mid-n] <= ambient {
		return fmt.Errorf("hotspot: heat did not diffuse to neighbors")
	}

	// Powered chip heats up and stays finite over many steps.
	for i := range temp {
		temp[i] = ambient
		power[i] = rng.Float32() * 0.5
	}
	cur := temp
	for s := 0; s < 50; s++ {
		cur = hotspotStep(cur, power, n, cap, rx, ry, rz, ambient)
	}
	var mean float64
	for _, v := range cur {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return fmt.Errorf("hotspot: diverged")
		}
		mean += float64(v)
	}
	mean /= float64(n * n)
	if mean <= ambient {
		return fmt.Errorf("hotspot: powered chip should heat above ambient (mean %v)", mean)
	}
	return nil
}
