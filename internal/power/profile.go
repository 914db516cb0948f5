package power

import (
	"fmt"
	"math"
)

// Profile parameterizes the relative power curve of one system.
// All fields are fractions of full-load power except the exponents.
type Profile struct {
	// IdleFrac is the measured active-idle power as a fraction of
	// full-load power (Figure 5's y-axis).
	IdleFrac float64
	// LowIntercept (r) is the intercept of the low-load linear region —
	// what active idle would cost without idle-specific optimizations.
	LowIntercept float64
	// Beta (β ≤ 1) is the concavity of the DVFS/core-C-state region.
	Beta float64
	// TurboWeight (w ∈ [0,1]) is the share of dynamic power following the
	// convex turbo term.
	TurboWeight float64
	// TurboGamma (γ ≥ 1) is the exponent of the turbo term.
	TurboGamma float64
}

// Validate reports the first implausible parameter.
func (p Profile) Validate() error {
	switch {
	case !(p.IdleFrac >= 0 && p.IdleFrac < 1):
		return fmt.Errorf("power: IdleFrac %v outside [0,1)", p.IdleFrac)
	case !(p.LowIntercept >= 0 && p.LowIntercept < 1):
		return fmt.Errorf("power: LowIntercept %v outside [0,1)", p.LowIntercept)
	case !(p.Beta > 0 && p.Beta <= 1.5):
		return fmt.Errorf("power: Beta %v outside (0,1.5]", p.Beta)
	case !(p.TurboWeight >= 0 && p.TurboWeight <= 1):
		return fmt.Errorf("power: TurboWeight %v outside [0,1]", p.TurboWeight)
	case !(p.TurboGamma >= 1 && p.TurboGamma <= 8):
		return fmt.Errorf("power: TurboGamma %v outside [1,8]", p.TurboGamma)
	}
	return nil
}

// Rel returns the measured relative power at utilization u ∈ [0,1]:
// the load curve for u > 0, and IdleFrac (package C-states engaged)
// at u = 0.
func (p Profile) Rel(u float64) float64 {
	if u <= 0 {
		return p.IdleFrac
	}
	return p.RelNoIdleOpt(u)
}

// RelNoIdleOpt returns the load-curve value at u without idle-specific
// optimization; at u = 0 this is the LowIntercept, the hypothetical
// "individual idle cores only" power the paper extrapolates toward.
func (p Profile) RelNoIdleOpt(u float64) float64 {
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	r, w := p.LowIntercept, p.TurboWeight
	dyn := (1-w)*math.Pow(u, p.Beta) + w*math.Pow(u, p.TurboGamma)
	return r + (1-r)*dyn
}

// ExtrapolatedIdleRel mirrors the paper's method on the model itself:
// the line through (10 %, rel(0.1)) and (20 %, rel(0.2)) evaluated at 0.
func (p Profile) ExtrapolatedIdleRel() float64 {
	r1, r2 := p.Rel(0.1), p.Rel(0.2)
	slope := (r2 - r1) / 0.1
	return r1 - slope*0.1
}

// IdleQuotient is the model-level extrapolated idle quotient
// (Figure 6): extrapolated over measured active idle.
func (p Profile) IdleQuotient() float64 {
	if p.IdleFrac <= 0 {
		return math.NaN()
	}
	return p.ExtrapolatedIdleRel() / p.IdleFrac
}
