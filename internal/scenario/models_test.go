package scenario

import (
	"testing"
	"time"

	"slr/internal/mobility"
	"slr/internal/radio"
)

// TestNewModelsDeliverTraffic verifies every registered mobility, traffic,
// and propagation model runs end to end through the full stack and still
// delivers data.
func TestNewModelsDeliverTraffic(t *testing.T) {
	base := func() Params {
		p := smallParams(SRP, 0, 5)
		p.Duration = 30 * time.Second
		return p
	}
	t.Run("mobility", func(t *testing.T) {
		for _, model := range mobility.Models() {
			p := base()
			p.Mobility = mobility.Spec{Model: model, MinSpeed: 1, MaxSpeed: 15, Pause: time.Second}
			r := Run(p)
			if r.DataSent == 0 || r.DataRecv == 0 {
				t.Fatalf("%s: sent %d recv %d, want both > 0", model, r.DataSent, r.DataRecv)
			}
		}
	})
	t.Run("traffic", func(t *testing.T) {
		// Import cycle-free: model names are stable strings.
		for _, model := range []string{"cbr", "poisson", "onoff"} {
			p := base()
			p.Traffic.Model = model
			r := Run(p)
			if r.DataSent == 0 || r.DataRecv == 0 {
				t.Fatalf("%s: sent %d recv %d, want both > 0", model, r.DataSent, r.DataRecv)
			}
		}
	})
	t.Run("propagation", func(t *testing.T) {
		for _, model := range radio.PropagationModels() {
			p := base()
			p.Propagation = radio.PropSpec{Model: model}
			r := Run(p)
			if r.DataSent == 0 || r.DataRecv == 0 {
				t.Fatalf("%s: sent %d recv %d, want both > 0", model, r.DataSent, r.DataRecv)
			}
		}
	})
}
