package vault

import "camps/internal/tally"

// Controller owns one vault's state.
type Controller struct{ served int }

func (c *Controller) Submit(addr uint64) {
	c.served++       // receiver-owned: vault-local, fine
	tally.Bump(addr) // drags a package-level write onto the vault path
}

// drain is unexported and no exported function calls it, yet it is an
// entry point: every vault function is, exported or not.
func (c *Controller) drain() {
	c.served = 0
	tally.Reset()
}
