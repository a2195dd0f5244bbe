package radio

import (
	"reflect"
	"testing"
)

// TestPropagationModelsRegistered verifies the built-in propagation models
// resolve.
func TestPropagationModelsRegistered(t *testing.T) {
	want := []string{"shadowing", "unit-disk"}
	if got := PropagationModels(); !reflect.DeepEqual(got, want) {
		t.Fatalf("PropagationModels() = %v, want %v", got, want)
	}
}

// TestUnknownPropagationErrors verifies NewPropagation rejects
// unregistered names (and NewChannel panics on them).
func TestUnknownPropagationErrors(t *testing.T) {
	p := DefaultParams()
	p.Propagation.Model = "warp"
	if _, err := NewPropagation(p); err == nil {
		t.Fatal("NewPropagation accepted unknown model")
	}
}

// TestFadingLinkContract verifies every propagation model keeps the
// contract the channel relies on: LinkRange is symmetric, deterministic
// across instances, positive, and never exceeds MaxRange — exactly, since
// the channel rejects on d² > MaxRange² before it consults the link. The
// sample is wide enough to hit the clamped tail (shadowing beyond +3
// sigma), where LinkRange must equal MaxRange.
func TestFadingLinkContract(t *testing.T) {
	for _, model := range PropagationModels() {
		t.Run(model, func(t *testing.T) {
			for _, seed := range []int64{11, 12} {
				p := DefaultParams()
				p.Seed = seed
				p.Propagation.Model = model
				a, err := NewPropagation(p)
				if err != nil {
					t.Fatal(err)
				}
				b, err := NewPropagation(p)
				if err != nil {
					t.Fatal(err)
				}
				max := a.MaxRange()
				if max < p.Range*0.4 {
					t.Fatalf("MaxRange %.1f implausibly small vs base %.1f", max, p.Range)
				}
				atMax := 0
				for i := NodeID(0); i < 200; i++ {
					for j := NodeID(200); j < 400; j++ {
						lr := a.LinkRange(i, j)
						if !(lr > 0 && lr <= max) {
							t.Fatalf("link %d-%d range %v outside (0, %v]", i, j, lr, max)
						}
						if lr == max {
							atMax++
						}
						if rev := a.LinkRange(j, i); rev != lr {
							t.Fatalf("link %d-%d asymmetric: %v vs %v", i, j, lr, rev)
						}
						if other := b.LinkRange(i, j); other != lr {
							t.Fatalf("link %d-%d differs across instances: %v vs %v", i, j, lr, other)
						}
					}
				}
				if atMax == 0 {
					t.Fatalf("seed %d: no link of 40000 reached MaxRange; the clamped tail went untested", seed)
				}
			}
		})
	}
}

// TestShadowingVariesPerLink verifies shadowing actually perturbs links
// (both above and below the nominal range) and that the seed changes the
// draw.
func TestShadowingVariesPerLink(t *testing.T) {
	p := DefaultParams()
	p.Seed = 3
	p.Propagation.Model = "shadowing"
	prop, err := NewPropagation(p)
	if err != nil {
		t.Fatal(err)
	}
	shorter, longer := 0, 0
	for i := NodeID(0); i < 40; i++ {
		lr := prop.LinkRange(i, i+100)
		if lr < p.Range {
			shorter++
		}
		if lr > p.Range {
			longer++
		}
	}
	if shorter == 0 || longer == 0 {
		t.Fatalf("shadowing links all on one side of nominal: %d shorter, %d longer", shorter, longer)
	}
	p.Seed = 4
	reseeded, err := NewPropagation(p)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := NodeID(0); i < 10; i++ {
		if reseeded.LinkRange(i, i+100) != prop.LinkRange(i, i+100) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical shadowing draws")
	}
}

// TestShadowingRejectsBadParams verifies parameter validation.
func TestShadowingRejectsBadParams(t *testing.T) {
	p := DefaultParams()
	p.Propagation = PropSpec{Model: "shadowing", Params: map[string]float64{"pathloss_exp": -1}}
	if _, err := NewPropagation(p); err == nil {
		t.Fatal("negative pathloss_exp accepted")
	}
}
