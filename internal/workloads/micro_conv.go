package workloads

import (
	"fmt"
	"math"
	"math/rand"

	"uvmasim/internal/cuda"
	"uvmasim/internal/kernels"
)

// conv2dCoeffs is the fixed 3x3 filter Polybench's 2DCONV applies.
var conv2dCoeffs = [3][3]float32{
	{0.2, 0.5, -0.8},
	{-0.3, 0.6, -0.9},
	{0.4, 0.7, 0.1},
}

// conv2dKernel computes the interior convolution of in (n x n) into out,
// walking row tiles the way the GPU kernel walks thread blocks. Border
// cells are left untouched, as in Polybench.
func conv2dKernel(in, out []float32, n int) {
	const rowTile = 64
	for base := 1; base < n-1; base += rowTile {
		rMax := base + rowTile
		if rMax > n-1 {
			rMax = n - 1
		}
		for i := base; i < rMax; i++ {
			for j := 1; j < n-1; j++ {
				var acc float32
				for di := -1; di <= 1; di++ {
					for dj := -1; dj <= 1; dj++ {
						acc += conv2dCoeffs[di+1][dj+1] * in[(i+di)*n+j+dj]
					}
				}
				out[i*n+j] = acc
			}
		}
	}
}

// conv3dKernel computes a 27-point convolution of a cubic grid with
// separable weights, interior only.
func conv3dKernel(in, out []float32, n int) {
	w := func(d int) float32 { return [3]float32{0.25, 0.5, 0.25}[d+1] }
	for i := 1; i < n-1; i++ {
		for j := 1; j < n-1; j++ {
			for k := 1; k < n-1; k++ {
				var acc float32
				for di := -1; di <= 1; di++ {
					for dj := -1; dj <= 1; dj++ {
						for dk := -1; dk <= 1; dk++ {
							acc += w(di) * w(dj) * w(dk) * in[((i+di)*n+j+dj)*n+k+dk]
						}
					}
				}
				out[(i*n+j)*n+k] = acc
			}
		}
	}
}

// convBench covers 2DCONV and 3DCONV.
type convBench struct {
	name string
	dims int
	// Buffer names, built once rather than on every Run.
	inName, outName string
}

func newConvBench(name string, dims int) *convBench {
	return &convBench{name: name, dims: dims, inName: name + ".in", outName: name + ".out"}
}

func newConv2D() Workload { return newConvBench("2DCONV", 2) }
func newConv3D() Workload { return newConvBench("3DCONV", 3) }

func (c *convBench) Name() string   { return c.name }
func (c *convBench) Domain() string { return "image processing" }

func (c *convBench) Run(ctx *cuda.Context, size Size) error {
	var cells int64
	var points int
	var intPerCell float64
	if c.dims == 2 {
		n := size.Dim2D(2)
		cells = n * n
		points = 9
		// Polybench's unoptimized kernel does per-tap index arithmetic
		// and bounds checks, making the kernel compute-intense (§4.1.1).
		intPerCell = 60
	} else {
		n := size.Dim3D(2)
		cells = n * n * n
		points = 27
		intPerCell = 120
	}
	in, err := ctx.Alloc(c.inName, 4*cells)
	if err != nil {
		return err
	}
	out, err := ctx.Alloc(c.outName, 4*cells)
	if err != nil {
		return err
	}
	if err := ctx.Upload(in); err != nil {
		return err
	}
	spec := kernels.Stencil(c.name, cells, points, intPerCell)
	if c.dims == 3 {
		// 3D halos are a larger fraction of a shrunken tile.
		spec.AsyncComputePenalty = 2.2
		spec.AsyncLoadInflation = 1.25
	}
	if err := ctx.Launch(cuda.Launch{
		Spec:   spec,
		Reads:  []*cuda.Buffer{in},
		Writes: []*cuda.Buffer{out},
	}); err != nil {
		return err
	}
	ctx.Synchronize()
	if err := ctx.Consume(out); err != nil {
		return err
	}
	if err := ctx.Free(in); err != nil {
		return err
	}
	return ctx.Free(out)
}

func (c *convBench) Validate() error {
	rng := rand.New(rand.NewSource(5))
	if c.dims == 2 {
		const n = 40
		in := make([]float32, n*n)
		for i := range in {
			in[i] = rng.Float32()*2 - 1
		}
		out := make([]float32, n*n)
		conv2dKernel(in, out, n)
		// Reference: direct evaluation per cell in float64.
		for i := 1; i < n-1; i++ {
			for j := 1; j < n-1; j++ {
				var want float64
				for di := -1; di <= 1; di++ {
					for dj := -1; dj <= 1; dj++ {
						want += float64(conv2dCoeffs[di+1][dj+1]) * float64(in[(i+di)*n+j+dj])
					}
				}
				if math.Abs(float64(out[i*n+j])-want) > 1e-4 {
					return fmt.Errorf("2DCONV: out[%d,%d] = %v, want %v", i, j, out[i*n+j], want)
				}
			}
		}
		// Borders untouched.
		if out[0] != 0 || out[n*n-1] != 0 {
			return fmt.Errorf("2DCONV: border cells must stay zero")
		}
		return nil
	}
	const n = 12
	in := make([]float32, n*n*n)
	for i := range in {
		in[i] = rng.Float32()
	}
	out := make([]float32, n*n*n)
	conv3dKernel(in, out, n)
	// Reference property: separable kernel with weights summing to 1 per
	// axis means the interior output is a weighted average — bounded by
	// the input range, and exact on a constant field.
	cons := make([]float32, n*n*n)
	for i := range cons {
		cons[i] = 3.5
	}
	cout := make([]float32, n*n*n)
	conv3dKernel(cons, cout, n)
	mid := ((n/2)*n + n/2) * n
	if math.Abs(float64(cout[mid+n/2])-3.5) > 1e-4 {
		return fmt.Errorf("3DCONV: constant field not preserved: %v", cout[mid+n/2])
	}
	for i := 1; i < n-1; i++ {
		for j := 1; j < n-1; j++ {
			for k := 1; k < n-1; k++ {
				v := float64(out[(i*n+j)*n+k])
				if v < -0.001 || v > 1.001 {
					return fmt.Errorf("3DCONV: out of range at (%d,%d,%d): %v", i, j, k, v)
				}
			}
		}
	}
	return nil
}
