package coord

import (
	"context"
	"fmt"
	"net"
	"sync"

	"diskpack/internal/farm"
)

// PoolRunner returns a farm.RunSweep-equivalent executor that
// dispatches every sweep through the coordinator protocol: a loopback
// coordinator on an ephemeral port plus `workers` in-process pull
// workers per call. The result is byte-identical to the in-process
// RunSweep (the coordinator's core guarantee), so the runner plugs
// straight into any caller written against RunSweep's signature — the
// identity tests use it to drain a grid through the elastic pool and
// diff the result against the local worker pool. The per-call workers
// argument overrides the constructor's when positive.
//
// This is the one-process form; to spread one sweep across machines,
// run Serve and Work directly.
func PoolRunner(ctx context.Context, workers int, cfg Config, wcfg WorkerConfig) func(sweep farm.Sweep, seed int64, perCall int) (*farm.SweepResult, error) {
	if workers < 1 {
		workers = 1
	}
	return func(sweep farm.Sweep, seed int64, perCall int) (*farm.SweepResult, error) {
		n := workers
		if perCall > 0 {
			n = perCall
		}
		// A worker failure must not strand Serve waiting on a drained
		// pool: cancel the serve context and surface the first error.
		runCtx, cancel := context.WithCancel(ctx)
		defer cancel()
		var (
			wg        sync.WaitGroup
			mu        sync.Mutex
			workerErr error
		)
		serveCfg := cfg
		serveCfg.OnListen = func(addr net.Addr) {
			if cfg.OnListen != nil {
				cfg.OnListen(addr)
			}
			url := "http://" + addr.String()
			for i := 0; i < n; i++ {
				i := i
				wg.Add(1)
				go func() {
					defer wg.Done()
					c := wcfg
					if c.Name != "" {
						c.Name = fmt.Sprintf("%s-%d", c.Name, i)
					}
					if _, err := Work(runCtx, url, c); err != nil && runCtx.Err() == nil {
						mu.Lock()
						if workerErr == nil {
							workerErr = err
						}
						mu.Unlock()
						cancel()
					}
				}()
			}
		}
		res, err := Serve(runCtx, sweep, seed, "127.0.0.1:0", serveCfg)
		cancel()
		wg.Wait()
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			if workerErr != nil {
				return nil, fmt.Errorf("coord: pool sweep %s: %w", sweep.Name, workerErr)
			}
			return nil, err
		}
		return res, nil
	}
}
