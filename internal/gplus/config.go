package gplus

import (
	"fmt"

	"repro/internal/core"
)

// Validate checks that the configuration describes a runnable
// simulation.  Scenario patching (internal/scenario) composes arbitrary
// overrides over DefaultConfig, so the invariants the simulator relies
// on implicitly — phase boundaries in order, probabilities in range,
// positive rates — are enforced here once instead of defensively
// throughout the hot loops.
func (c *Config) Validate() error {
	if c.Days < 1 {
		return fmt.Errorf("gplus: Days must be >= 1, got %d", c.Days)
	}
	if c.Phase1End < 1 || c.Phase1End >= c.Phase2End || c.Phase2End > c.Days {
		return fmt.Errorf("gplus: phase schedule must satisfy 1 <= Phase1End < Phase2End <= Days, got %d/%d/%d",
			c.Phase1End, c.Phase2End, c.Days)
	}
	if c.DailyBase < 1 {
		return fmt.Errorf("gplus: DailyBase must be >= 1, got %d", c.DailyBase)
	}
	for name, p := range map[string]float64{
		"AttrProb":          c.AttrProb,
		"PNewValue":         c.PNewValue,
		"CelebFrac":         c.CelebFrac,
		"InviteAttrInherit": c.InviteAttrInherit,
		"RecipSlowFrac":     c.RecipSlowFrac,
	} {
		if p < 0 || p > 1 {
			return fmt.Errorf("gplus: %s must be in [0,1], got %g", name, p)
		}
	}
	for i := 0; i < 3; i++ {
		if f := c.SubscriberFrac[i]; f < 0 || f > 1 {
			return fmt.Errorf("gplus: SubscriberFrac[%d] must be in [0,1], got %g", i, f)
		}
		if c.CelebFrac+c.SubscriberFrac[i] > 1 {
			return fmt.Errorf("gplus: CelebFrac+SubscriberFrac[%d] = %g exceeds 1",
				i, c.CelebFrac+c.SubscriberFrac[i])
		}
		if p := c.RecipProb[i]; p < 0 || p > 1 {
			return fmt.Errorf("gplus: RecipProb[%d] must be in [0,1], got %g", i, p)
		}
		if p := c.InviteProb[i]; p < 0 || p > 1 {
			return fmt.Errorf("gplus: InviteProb[%d] must be in [0,1], got %g", i, p)
		}
		// invitedJoin draws its burst from IntN(2*InviteBurst); a burst
		// mean below 0.5 truncates to an empty interval and panics, so an
		// inviting configuration must carry a usable burst.
		if c.InviteProb[i] > 0 && c.InviteBurst < 0.5 {
			return fmt.Errorf("gplus: InviteProb[%d] > 0 requires InviteBurst >= 0.5, got %g", i, c.InviteBurst)
		}
	}
	if c.MaxAttrFrac <= 0 || c.MaxAttrFrac > 1 {
		return fmt.Errorf("gplus: MaxAttrFrac must be in (0,1], got %g", c.MaxAttrFrac)
	}
	if c.Attachment > core.AttachPAPA {
		return fmt.Errorf("gplus: unknown attachment kind %d", c.Attachment)
	}
	if c.Alpha < 0 || c.Beta < 0 {
		return fmt.Errorf("gplus: attachment exponents must be >= 0, got alpha=%g beta=%g", c.Alpha, c.Beta)
	}
	if c.SigmaAttr < 0 || c.SigmaLife < 0 {
		return fmt.Errorf("gplus: sigma parameters must be >= 0, got SigmaAttr=%g SigmaLife=%g",
			c.SigmaAttr, c.SigmaLife)
	}
	if c.MeanSleep <= 0 {
		return fmt.Errorf("gplus: MeanSleep must be > 0, got %g", c.MeanSleep)
	}
	if c.RecipDelayMean < 0 || c.RecipDelaySlowMean < 0 {
		return fmt.Errorf("gplus: reciprocation delays must be >= 0, got %g/%g",
			c.RecipDelayMean, c.RecipDelaySlowMean)
	}
	if c.CelebSplash < 0 {
		return fmt.Errorf("gplus: CelebSplash must be >= 0, got %d", c.CelebSplash)
	}
	for t, w := range c.FocalTypeWeight {
		if w < 0 {
			return fmt.Errorf("gplus: FocalTypeWeight[%v] must be >= 0, got %g", t, w)
		}
	}
	return nil
}
