package storage

import (
	"fmt"

	"diskpack/internal/disk"
	"diskpack/internal/obs"
)

// Observability taps. Everything in this file only READS simulation
// state, and always at points where every shard is parked (runner
// construction, window boundaries, the final fold), so recording is
// race-free and the recorded stream is deterministic at any worker
// count: per-disk timelines are single-writer (each disk belongs to
// exactly one shard, and its transition sequence is shard-layout-
// invariant by the byte-identity property), and boundary events append
// in boundary order, which is also layout-invariant.

// attachObs wires the observer's trace recorder to every disk. Called
// once from newRunner, after the disks exist and before any simulated
// time passes, in ascending global disk order — so each timeline opens
// with the construction-time Idle segment.
func (r *runner) attachObs() {
	o := r.cfg.Obs
	if o == nil || o.Trace == nil {
		return
	}
	o.Trace.InitTracks(r.cfg.NumDisks, disk.StateNames())
	for d := 0; d < r.cfg.NumDisks; d++ {
		s := 0
		if r.shardOf != nil {
			s = int(r.shardOf[d])
		}
		r.shards[s].localDisk(d).SetRecorder(o.Trace)
	}
}

// checkInterrupt polls the observer's interrupt flag at a boundary
// (shards parked). A set flag aborts the run with obs.ErrInterrupted
// so the CLI can flush partial trace and telemetry output.
func (r *runner) checkInterrupt(now float64) error {
	if r.cfg.Obs.Interrupted() {
		return fmt.Errorf("storage: run %w at t=%.0fs", obs.ErrInterrupted, now)
	}
	return nil
}

// simSteps sums fired-event counts across shards — the live progress
// figure published as disksim_sim_events.
func (r *runner) simSteps() uint64 {
	var n uint64
	for _, m := range r.shards {
		n += m.env.Steps()
	}
	return n
}

// observeWindow publishes one closed window to every enabled sink.
// Runs after the stream observer (so tunable-group thresholds are
// filled in) and before the accumulators reset.
func (r *runner) observeWindow(w *Window) error {
	o := r.cfg.Obs
	if o == nil {
		return nil
	}
	if m := o.Metrics; m != nil {
		m.Windows.Inc()
		m.SimSeconds.Set(w.End)
		m.SimEvents.Set(float64(r.simSteps()))
		m.Arrivals.Add(w.Total.Arrivals)
		m.Completions.Add(w.Total.Completed)
		m.SpinUps.Add(int64(w.Total.SpinUps))
		m.SpinDowns.Add(int64(w.Total.SpinDowns))
		m.EnergyJoules.Add(w.Total.Energy + w.MigrationEnergy)
		m.RespP95.Set(w.Total.RespP95)
		m.MigratedFiles.Add(w.MigratedFiles)
		m.Failures.Add(int64(w.Failures))
		m.Rebuilds.Add(int64(w.Rebuilds))
		m.Resp.AddBuckets(w.Total.RespHist, w.Total.RespMean*float64(w.Total.Completed))
		if span := w.End - w.Start; span > 0 {
			m.PowerWatts.Set(w.Total.Energy / span)
			m.StandbyDisks.Set(w.Total.StandbyTime / span)
		}
	}
	if t := o.Trace; t != nil {
		t.Emit(obs.TraceEvent{
			Phase: 'C', Track: "windows", Name: "load", At: w.End,
			Args: map[string]any{
				"arrivals":  w.Total.Arrivals,
				"completed": w.Total.Completed,
			},
		})
		t.Emit(obs.TraceEvent{
			Phase: 'C', Track: "windows", Name: "power+tail", At: w.End,
			Args: map[string]any{
				"p95_s":   w.Total.RespP95,
				"power_w": windowPower(w),
			},
		})
	}
	// WriteWindow marshals before it returns, so the live
	// double-buffered window needs no copy.
	if err := o.Telemetry.WriteWindow(w); err != nil {
		return fmt.Errorf("storage: telemetry: %w", err)
	}
	return nil
}

// windowPower is the window's mean farm power in watts.
func windowPower(w *Window) float64 {
	if span := w.End - w.Start; span > 0 {
		return w.Total.Energy / span
	}
	return 0
}

// observeFinal publishes run-final figures: the trace horizon (so
// open-ended state segments close) and the authoritative end-of-run
// metric values. Classic (windowless) runs publish their whole-run
// counters here; windowed runs already accumulated them per window.
func (r *runner) observeFinal(res *Results, horizon float64) {
	o := r.cfg.Obs
	if o == nil {
		return
	}
	if t := o.Trace; t != nil {
		t.SetHorizon(horizon)
	}
	if m := o.Metrics; m != nil {
		if r.sc == nil {
			m.Arrivals.Add(res.Completed + res.Unfinished)
			m.Completions.Add(res.Completed)
			m.SpinUps.Add(int64(res.SpinUps))
			m.SpinDowns.Add(int64(res.SpinDowns))
			m.MigratedFiles.Add(res.MigratedFiles)
			m.Failures.Add(int64(res.Failures))
			m.Rebuilds.Add(int64(res.Rebuilds))
		}
		m.SimSeconds.Set(horizon)
		m.SimEvents.Set(float64(r.simSteps()))
		m.EnergyJoules.Set(res.Energy)
		m.PowerWatts.Set(res.AvgPower)
		m.StandbyDisks.Set(res.AvgStandbyDisks)
		m.RespP95.Set(res.RespP95)
	}
}
