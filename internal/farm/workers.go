package farm

import (
	"runtime"
	"sync/atomic"
)

// simWorkers is the process-wide shard count the simulation body
// passes to the storage kernel. It is plumbing, not policy: results
// are byte-identical at any value (the kernel proves it — see
// storage.ShardBlocker and the parallel identity tests), so the
// setting only trades wall-clock for goroutines. Zero means "unset"
// and resolves to 1 (sequential), keeping single-threaded behavior the
// default for library users, tests, and the sweep pool, whose workers
// already saturate cores on grid runs.
var simWorkers atomic.Int32

// SetSimWorkers sets how many worker goroutines each simulation shards
// across and returns the previous effective setting (for defer-restore
// in tests — the return is always >= 1, safe to pass back in). n <= 0
// selects one worker per core (GOMAXPROCS).
func SetSimWorkers(n int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	prev := simWorkers.Swap(int32(n))
	if prev <= 0 {
		prev = 1
	}
	return int(prev)
}

// SimWorkers returns the effective per-simulation worker count
// (default 1).
func SimWorkers() int {
	if n := simWorkers.Load(); n > 0 {
		return int(n)
	}
	return 1
}
