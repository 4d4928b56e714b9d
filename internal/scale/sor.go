package scale

import "math"

// SOR is Young's over-relaxation rule for a two-block Gauss–Seidel
// iteration on a concave dual — System's relaxed sweeps and SEA's outer
// iterations alike — read off the iteration's own residuals. Rows given the
// column block and columns given the row block are independent, so near the
// solution, where the clamps stop changing, the iteration is Gauss–Seidel on
// a 2-cyclic, consistently ordered system, and Young's theory gives the best
// factor from the Gauss–Seidel rate ρ alone: ω = 2/(1+√(1−ρ)).
//
// The caller feeds Observe one residual per observation. Observations fall
// into windows of StallWindow; a window whose best residual improves on the
// previous window's by less than 2% stalls. Once three consecutive plain
// windows' ratios q of best residuals agree within 0.02, the rule takes
// ρ = q^(1/(StallWindow·per)), with per the iterations between two
// observations, and sets ω = 1 + d·(min(1.9, 2/(1+√(1−ρ))) − 1), with the
// damping d = 2^−k after k rollbacks. (A ratio of 0.98 or more is a stall,
// so every ratio it sees is below that.) While ω > 1, each window that
// improves asks the caller to checkpoint its iterate, and a window that
// stalls rolls back: ω returns to 1, the caller restores the checkpoint, and
// the rate is measured afresh. After maxRollbacks rollbacks ω stays 1.
// While ω is 1 the iteration is plain Gauss–Seidel, so an iteration on
// which the rule never engages runs exactly as it would without it.
type SOR struct {
	// winBest is the current window's best residual, prevWin the previous
	// window's, and winCount the observations in the current window.
	winBest, prevWin float64
	// omega is the over-relaxation factor ω, and ckBest the best residual
	// of the window that ended at the checkpoint.
	omega, ckBest float64
	// ratios holds the last two window-to-window ratios of plain windows,
	// oldest first, of which nRatios (at most 3) were recorded since the
	// last rollback or stall.
	ratios [2]float64
	// exp is 1/(StallWindow·per), which turns a window's ratio into the
	// rate per iteration.
	exp float64
	// rollbacks counts the over-relaxed windows rolled back.
	winCount, rollbacks, nRatios uint8
}

// Verdict is what the end of an observation, and of its window, asks of
// the caller of SOR.Observe.
type Verdict uint8

const (
	// WindowPass: nothing to do. The window goes on, or it ended without
	// a stall and with nothing to save.
	WindowPass Verdict = iota
	// WindowCheckpoint: the window ended and improved while ω > 1; the
	// caller saves its iterate as the rollback target.
	WindowCheckpoint
	// WindowStalled: a plain window stalled.
	WindowStalled
	// WindowRollback: an over-relaxed window stalled; ω is 1 again and the
	// caller restores the last checkpoint.
	WindowRollback
)

// StallWindow is the length, in observations, of SOR's windows: sweeps for
// System.Run, checked iterations for SEA.
const StallWindow = 6

// maxRollbacks is how many over-relaxed windows the rule rolls back before
// it keeps ω = 1 for good.
const maxRollbacks = 3

// Start resets the rule for a fresh iteration that observes its residual
// every per iterations.
func (c *SOR) Start(per int) {
	*c = SOR{winBest: math.Inf(1), prevWin: math.Inf(1), omega: 1, exp: 1 / float64(StallWindow*per)}
}

// Omega returns the current factor ω (1: plain Gauss–Seidel).
func (c *SOR) Omega() float64 { return c.omega }

// Restart judges the next window against nothing, as after a change of
// iteration that makes the previous window's residuals incomparable.
func (c *SOR) Restart() { c.prevWin = math.Inf(1) }

// Observe folds one residual into the current window and, on the window's
// last observation, judges the window against the one before (see SOR).
// adapt false keeps ω where it is: the window is judged, but its rate is
// not recorded.
func (c *SOR) Observe(res float64, adapt bool) Verdict {
	if res < c.winBest {
		c.winBest = res
	}
	if c.winCount++; c.winCount < StallWindow {
		return WindowPass
	}
	best, prev := c.winBest, c.prevWin
	c.prevWin = best
	c.winBest = math.Inf(1)
	c.winCount = 0
	if best >= 0.98*prev {
		if c.omega > 1 {
			c.Rollback()
			return WindowRollback
		}
		c.nRatios = 0
		return WindowStalled
	}
	if !adapt {
		return WindowPass
	}
	if c.omega == 1 {
		if c.rollbacks >= maxRollbacks || math.IsInf(prev, 1) {
			return WindowPass
		}
		q := best / prev
		r0, r1 := c.ratios[0], c.ratios[1]
		c.ratios = [2]float64{r1, q}
		if c.nRatios < 3 {
			c.nRatios++
		}
		if c.nRatios < 3 || max(r0, r1, q)-min(r0, r1, q) > 0.02 {
			return WindowPass
		}
		rho := math.Pow(q, c.exp)
		damp := math.Ldexp(1, -int(c.rollbacks))
		c.omega = 1 + damp*(min(1.9, 2/(1+math.Sqrt(1-rho)))-1)
	}
	if c.omega > 1 {
		c.ckBest = best
		return WindowCheckpoint
	}
	return WindowPass
}

// Rollback returns ω to 1 and restarts the windows against the
// checkpoint's; the caller restores its checkpointed iterate. Observe rolls
// back a stalled over-relaxed window itself; a caller calls Rollback on a
// NaN residual while ω > 1.
func (c *SOR) Rollback() {
	c.omega = 1
	c.rollbacks++
	c.nRatios = 0
	c.winBest, c.winCount, c.prevWin = math.Inf(1), 0, c.ckBest
}

// Relax over-relaxes a step from z to next by the factor ω. At ω = 1 it
// returns next itself: z + 1·(next − z) can differ from next in the last
// bit.
func Relax(z, next, omega float64) float64 {
	if omega == 1 {
		return next
	}
	return z + omega*(next-z)
}
