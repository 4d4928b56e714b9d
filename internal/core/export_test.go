package core

import "testing"

// SetOmegaHook installs h as the ω rule's test hook (see omegaHook) for the
// rest of the test.
func SetOmegaHook(t testing.TB, h func(iteration int, omega float64) float64) {
	t.Cleanup(func() { omegaHook = nil })
	omegaHook = h
}

// DisableWarmStart turns the kernel's warm-started sorts off (see
// disableWarmStart) for the rest of the test.
func DisableWarmStart(t testing.TB) {
	t.Cleanup(func() { disableWarmStart = false })
	disableWarmStart = true
}
