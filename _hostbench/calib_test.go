package main

import (
	"math"
	"testing"
)

// The chase region holds one cycle through every slot, so a chase never
// settles into a short loop that stays in cache.
func TestCalibratorChaseIsOneCycle(t *testing.T) {
	c, err := newCalibrator()
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	p, n := int32(0), 0
	for {
		p = c.next[p]
		n++
		if p == 0 || n > len(c.next) {
			break
		}
	}
	if n != len(c.next) {
		t.Fatalf("cycle through slot 0 has %d slots, want %d", n, len(c.next))
	}
	if len(c.chase) != calibWarm {
		t.Fatalf("%d warm-up slices, want %d", len(c.chase), calibWarm)
	}
}

// The scale is the nominal over the median slice.
func TestCalibratorScale(t *testing.T) {
	c := &calibrator{chase: []float64{2 * refChaseNominalMs, refChaseNominalMs / 2, 2 * refChaseNominalMs}}
	if got := c.scale(); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("scale = %g, want 0.5", got)
	}
}
