package farm

import (
	"sync/atomic"

	"diskpack/internal/obs"
)

// runObserver is the process-wide observability sink wired into the
// storage kernel (same plumbing-not-policy shape as simWorkers: results
// are byte-identical with or without it). The CLI installs one when
// -trace-out / -telemetry-out / -metrics-addr are set; the default nil
// costs a pointer test per run. Each public entry — Run, RunStream,
// CompiledSweep.RunPoint — reads it once and hands it down to the
// simulation body.
var runObserver atomic.Pointer[obs.RunObserver]

// SetRunObserver installs the process-wide run observer (nil
// disables) and returns the previous one for defer-restore.
func SetRunObserver(o *obs.RunObserver) *obs.RunObserver {
	return runObserver.Swap(o)
}
