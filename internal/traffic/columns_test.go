package traffic

import (
	"math"
	"strconv"
	"testing"

	"repro/internal/rng"
)

// TestColumnarMatchesScalar drives RCBR both ways — per-flow Source
// objects vs InitColumn/AdvanceColumn — over an irregular probe schedule
// and requires bit-identical rates and segment ends at every probe.
func TestColumnarMatchesScalar(t *testing.T) {
	const flows = 257 // not a lane multiple: exercises tail lanes
	probes := []float64{0, 0.01, 0.5, 0.5, 1, 3.75, 10, 10.0001, 40}
	t.Run("rcbr", func(t *testing.T) {
		model := NewRCBR(1, 0.3, 1)

		// Scalar reference: one source per flow, each on substream i.
		parent := rng.New(0xC01, 7)
		type ref struct {
			src    Source
			rate   float64
			segEnd float64
		}
		refs := make([]ref, flows)
		for i := range refs {
			src := model.New(parent.Split(uint64(i)))
			seg := src.Next()
			refs[i] = ref{src: src, rate: seg.Rate, segEnd: seg.Duration}
		}

		// Columnar: same substreams, same tags.
		parent2 := rng.New(0xC01, 7)
		var c Columns
		c.Grow(flows)
		for i := 0; i < flows; i++ {
			parent2.SplitInto(uint64(i), &c.Str[i])
		}
		model.InitColumn(&c, 0, flows)

		check := func(stage string) {
			t.Helper()
			for i := range refs {
				if math.Float64bits(refs[i].rate) != math.Float64bits(c.Rate[i]) {
					t.Fatalf("%s: flow %d rate: scalar %x columnar %x",
						stage, i, math.Float64bits(refs[i].rate), math.Float64bits(c.Rate[i]))
				}
				if math.Float64bits(refs[i].segEnd) != math.Float64bits(c.End[i]) {
					t.Fatalf("%s: flow %d segEnd: scalar %v columnar %v",
						stage, i, refs[i].segEnd, c.End[i])
				}
			}
		}
		check("init")

		for _, probe := range probes {
			for i := range refs {
				for refs[i].segEnd <= probe {
					seg := refs[i].src.Next()
					refs[i].rate = seg.Rate
					refs[i].segEnd += seg.Duration
				}
			}
			model.AdvanceColumn(&c, flows, probe)
			check("t=" + strconv.FormatFloat(probe, 'g', -1, 64))
		}
	})
}

// TestColumnarSwapKeepsStreams pins that Swap moves a flow's whole state —
// including its RNG substream — so compaction in the ensemble engine cannot
// detach a flow from its draws.
func TestColumnarSwapKeepsStreams(t *testing.T) {
	model := NewRCBR(1, 0.3, 1)
	parent := rng.New(0xBEEF, 3)
	var c Columns
	c.Grow(2)
	for i := 0; i < 2; i++ {
		parent.SplitInto(uint64(i), &c.Str[i])
	}
	model.InitColumn(&c, 0, 2)

	// Reference continuation of flow 0's stream.
	ref := rng.New(0xBEEF, 3)
	src0 := model.New(ref.Split(0))
	src0.Next()
	want := src0.Next()

	c.Swap(0, 1)
	// Flow 0 now lives in slot 1; advancing far enough forces a redraw.
	end0 := c.End[1]
	model.AdvanceColumn(&c, 2, end0)
	if c.End[1] <= end0 {
		t.Fatalf("flow 0 did not advance past %v", end0)
	}
	if math.Float64bits(c.Rate[1]) != math.Float64bits(want.Rate) {
		t.Fatalf("flow 0's stream did not travel with the swap: rate %v want %v", c.Rate[1], want.Rate)
	}
}
