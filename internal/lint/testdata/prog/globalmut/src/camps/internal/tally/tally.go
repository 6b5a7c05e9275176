// Package tally is an innocent-looking helper that hides shared state:
// every vault calling Bump writes the same package-level map.
package tally

var counts = map[uint64]int{}

func Bump(addr uint64) {
	counts[addr]++ // want `package-level tally.counts written outside init: tally.Bump is reachable from runtime path vault.\(Controller\).Submit → tally.Bump`
}

func Reset() {
	counts = map[uint64]int{} // want `package-level tally.counts written outside init: tally.Reset is reachable from runtime path vault.\(Controller\).drain → tally.Reset`
}
