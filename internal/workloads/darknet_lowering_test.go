package workloads

import (
	"reflect"
	"strconv"
	"testing"

	"uvmasim/internal/cuda"
	"uvmasim/internal/trace"
	"uvmasim/internal/workloads/darknet"
)

var darknetNames = []string{"resnet18", "resnet50", "yolov3-tiny", "yolov3"}

func darknetByName(t *testing.T, name string) *darknetBench {
	t.Helper()
	w, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return w.(*darknetBench)
}

// kernelName is the span name a darknet layer's kernel carries:
// <net>_l<i>_<kernel>, where convolutions and fully connected layers
// lower to a gemm and every other kind keeps its cfg name.
func kernelName(net string, i int, l darknet.Layer) string {
	k := l.Kind.String()
	switch l.Kind {
	case darknet.Conv:
		k = "conv_gemm"
	case darknet.Connected:
		k = "fc_gemm"
	}
	return net + "_l" + strconv.Itoa(i) + "_" + k
}

// TestDarknetLoweringMatchesLayerSpec pins the cached lowering to a fresh
// one: every layer's spec equals layerSpec at darknetBatch under its
// kernel name, and its weight buffer is named and sized per layer.
func TestDarknetLoweringMatchesLayerSpec(t *testing.T) {
	for _, name := range darknetNames {
		d := darknetByName(t, name)
		low := d.lowered()
		net := d.build()
		if len(low.layers) != len(net.Layers) {
			t.Fatalf("%s: %d lowered layers, network has %d", name, len(low.layers), len(net.Layers))
		}
		if want := int64(net.MaxActivation()) * 4 * darknetBatch; low.actBytes != want {
			t.Errorf("%s: activation buffers %d bytes, want %d", name, low.actBytes, want)
		}
		for i, l := range net.Layers {
			ll := low.layers[i]
			want := layerSpec(l, darknetBatch)
			want.Name = kernelName(name, i, l)
			if !reflect.DeepEqual(ll.spec, want) {
				t.Errorf("%s layer %d: cached spec\n%+v\nwant\n%+v", name, i, ll.spec, want)
			}
			wantBytes, wantWeight := int64(l.Weights())*4, name+".w"+strconv.Itoa(i)
			if wantBytes == 0 {
				wantWeight = ""
			}
			if ll.weightBytes != wantBytes || ll.weight != wantWeight {
				t.Errorf("%s layer %d: weight buffer %q (%d bytes), want %q (%d bytes)",
					name, i, ll.weight, ll.weightBytes, wantWeight, wantBytes)
			}
		}
	}
}

// TestDarknetTraceKernelNames checks that a traced yolov3-tiny inference
// names its kernel spans after their layers, in layer order, once per
// image.
func TestDarknetTraceKernelNames(t *testing.T) {
	const name = "yolov3-tiny"
	d := darknetByName(t, name)
	ctx := cuda.NewContext(cuda.DefaultSystemConfig(), cuda.Standard, 3)
	tr := trace.New()
	ctx.SetTracer(tr)
	if err := d.Run(ctx, Super); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range tr.Events() {
		if e.Track == trace.Kernel {
			got = append(got, e.Name)
		}
	}
	var want []string
	for img := 0; img < imagesFor(Super); img++ {
		for i, l := range d.lowered().net.Layers {
			want = append(want, kernelName(name, i, l))
		}
	}
	if len(want) < 2*len(d.lowered().net.Layers) {
		t.Fatalf("expected several images at %v, got %d kernel names", Super, len(want))
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("kernel spans\n%v\nwant\n%v", got, want)
	}
	if got[0] != "yolov3-tiny_l0_conv_gemm" || got[1] != "yolov3-tiny_l1_maxpool" {
		t.Errorf("first spans %q, %q; want yolov3-tiny_l0_conv_gemm, yolov3-tiny_l1_maxpool", got[0], got[1])
	}
}
