// Fixture for the obsdefault analyzer: wall-clock reads in the
// observability layer must be flagged; threading the caller's observer
// (nil means disabled) and stamping events with simulated time must
// not.
package obsdefault

import (
	"time"

	"gtlb/internal/obs"
)

func runThreaded(o obs.Observer) {
	// The nil-safe helper with the threaded observer: fine.
	obs.Emit(o, obs.Event{Kind: obs.DESArrival, Time: 1.5})
}

func stampsWallClock(o obs.Observer) {
	now := time.Now() // want "time.Now reads the wall clock in the observability layer"
	obs.Emit(o, obs.Event{Kind: obs.DESArrival, Time: float64(now.Unix())})
}

func measuresWallClock(o obs.Observer, start time.Time) {
	d := time.Since(start) // want "time.Since reads the wall clock in the observability layer"
	obs.Emit(o, obs.Event{Kind: obs.DESDeparture, V: d.Seconds()})
}

func stampsSimTime(o obs.Observer, simNow float64) {
	obs.Emit(o, obs.Event{Kind: obs.DESDeparture, Time: simNow})
	// Construction from explicit values never reads the clock: fine.
	_ = time.Unix(0, 0)
}

func suppressed(o obs.Observer) {
	//lint:ignore obsdefault exercising the suppression path
	now := time.Now()
	obs.Emit(o, obs.Event{Kind: obs.DESArrival, Time: float64(now.Unix())})
}
