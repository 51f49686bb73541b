package light

import (
	"fmt"
	"math"
)

// Controller implements paper §4.3: it keeps the total illumination
// I_sum = I_led + I_ambient constant by retargeting the LED whenever the
// ambient contribution changes, moving there through the configured
// Stepper so no step is perceivable.
//
// All intensities are normalized: 1.0 is the LED at full brightness, and
// ambient light is expressed in the same units (AmbientFullLux maps lux to
// this scale).
type Controller struct {
	// TargetSum is the desired constant total illumination, in LED units.
	TargetSum float64
	// MinLevel and MaxLevel clamp the LED's operating range; the paper
	// evaluates dimming levels in [0.1, 0.9].
	MinLevel, MaxLevel float64
	// Deadband suppresses retargeting for ambient changes whose required
	// LED correction is below this threshold, mimicking the paper's goal
	// of minimizing the number of adaptations.
	Deadband float64
	// Stepper plans the flicker-free path to each new target.
	Stepper Stepper
	// Metrics, when non-nil, records steps, retargets and the perceived-
	// domain error. Nil (the default) is a no-op.
	Metrics *Metrics

	level       float64
	initialized bool
	adjustments int
	retargets   int
}

// NewController returns a controller starting at the level required for
// zero ambient light.
func NewController(targetSum float64, stepper Stepper) (*Controller, error) {
	if !(targetSum > 0 && targetSum <= 2) { // NaN fails too
		return nil, fmt.Errorf("light: implausible target sum %v", targetSum)
	}
	if stepper == nil {
		return nil, fmt.Errorf("light: nil stepper")
	}
	return &Controller{
		TargetSum: targetSum,
		MinLevel:  0.1,
		MaxLevel:  0.9,
		Deadband:  1e-4,
		Stepper:   stepper,
	}, nil
}

// Level returns the LED's current measured-domain level.
func (c *Controller) Level() float64 { return c.level }

// Adjustments returns the cumulative number of brightness steps taken —
// the quantity plotted in paper Fig. 19(c). Every step costs a
// super-symbol re-selection and wears the driver, so fewer is better.
func (c *Controller) Adjustments() int { return c.adjustments }

// Retargets returns how many times the target changed by more than the
// deadband.
func (c *Controller) Retargets() int { return c.retargets }

// Required returns the clamped LED level needed for a given ambient
// contribution (paper Eq. 5: ΔI_led = −ΔI_amb).
func (c *Controller) Required(ambient float64) float64 {
	return math.Min(c.MaxLevel, math.Max(c.MinLevel, c.TargetSum-ambient))
}

// Observe processes a new ambient reading and returns the flicker-free
// step plan toward the new required level (empty when within the
// deadband). The controller's level advances through the entire plan; the
// caller applies the steps at its own pace (one per super-symbol boundary,
// in the transmitter).
func (c *Controller) Observe(ambient float64) []float64 {
	target := c.Required(ambient)
	if !c.initialized {
		c.initialized = true
		c.level = target
		c.Metrics.onInit(target)
		c.Metrics.observeError(c.level, target)
		return []float64{target}
	}
	if math.Abs(target-c.level) <= c.Deadband {
		c.Metrics.observeError(c.level, target)
		return nil
	}
	plan := c.Stepper.Plan(c.level, target)
	prev := c.level
	for _, step := range plan {
		c.Metrics.onStep(prev, step)
		prev = step
	}
	c.level = target
	c.adjustments += len(plan)
	c.retargets++
	c.Metrics.onRetarget()
	c.Metrics.observeError(c.level, target)
	return plan
}

// StepToward is the incremental variant used by the live transmitter: it
// recomputes the target for the latest ambient reading and advances the
// LED by at most ONE stepper step (one step per super-symbol/frame
// boundary keeps each change imperceptible while the target may still be
// moving). It returns the new level and whether a step was taken.
func (c *Controller) StepToward(ambient float64) (float64, bool) {
	target := c.Required(ambient)
	if !c.initialized {
		c.initialized = true
		c.level = target
		c.Metrics.onInit(target)
		c.Metrics.observeError(c.level, target)
		return c.level, true
	}
	next, stepped := c.Stepper.StepFrom(c.level, target)
	if !stepped {
		c.Metrics.observeError(c.level, target)
		return c.level, false
	}
	c.Metrics.onStep(c.level, next)
	c.level = next
	c.adjustments++
	c.Metrics.observeError(c.level, target)
	return c.level, true
}
