// Golden file for the simdeterminism analyzer: camps/internal/vault is a
// simulation package, so wall-clock reads, global RNG and go statements
// are findings; owned generators and annotated lines are not.
package vault

import (
	"math/rand"
	"time"
)

func BadWallClock() time.Duration {
	t0 := time.Now()             // want `time.Now in simulation package`
	time.Sleep(time.Millisecond) // want `time.Sleep in simulation package`
	return time.Since(t0)        // want `time.Since in simulation package`
}

func BadTimer() {
	_ = time.After(time.Second)            // want `time.After in simulation package`
	time.AfterFunc(time.Second, func() {}) // want `time.AfterFunc in simulation package`
}

func BadGlobalRand() int {
	rand.Seed(1)          // want `global math/rand.Seed in simulation package`
	return rand.Intn(100) // want `global math/rand.Intn in simulation package`
}

func GoodOwnedRand(seed int64) int {
	r := rand.New(rand.NewSource(seed)) // constructors are deterministic given the seed
	return r.Intn(100)
}

func GoodTimeArithmetic(a, b time.Time) time.Duration {
	return b.Sub(a) // methods on stored values never read the clock
}

func AllowedWallClock() time.Time {
	return time.Now() //lint:allow-wallclock coarse progress logging only, excluded from Results
}

func MissingReason() {
	time.Sleep(time.Millisecond) //lint:allow-wallclock // want `time.Sleep in simulation package` `directive needs a reason`
}

func BadGoroutine(done chan struct{}) {
	go close(done) // want `go statement in simulation package camps/internal/vault`
}
