package control

import (
	"fmt"

	"diskpack/internal/farm"
	"diskpack/internal/obs"
)

// AppliedAction records one controller decision and what became of it.
type AppliedAction struct {
	// Window indexes the telemetry window the decision followed.
	Window int
	// Action is the controller's request.
	Action Action
	// Applied reports whether the actuator accepted it (a re-plan that
	// outgrows the farm, for example, is skipped, not fatal).
	Applied bool
	// Note explains the outcome ("threshold 26.6s", "needs 24 disks,
	// farm has 20").
	Note string
	// Migration accounting of an applied respec or realloc.
	MovedFiles int   `json:",omitempty"`
	MovedBytes int64 `json:",omitempty"`
}

// Result is a completed controlled run: the final metrics (exactly
// what farm.Run returns for the controlled spec), the telemetry
// windows the controller saw, and the action log.
type Result struct {
	// Controller names the controller kind that ran.
	Controller string
	// Metrics is the run's unified result.
	Metrics *farm.Metrics
	// Windows are the telemetry snapshots, one per epoch.
	Windows []farm.Window
	// Actions logs every controller decision in order.
	Actions []AppliedAction
}

func init() {
	// Controlled specs reach farm.Run as their controller's window
	// sink; registering the factory here makes them runnable by every
	// executor that funnels through Run — sweeps, shards, the
	// coordinator — the moment this package is linked in.
	farm.RegisterController(func(spec farm.Spec) (farm.StreamSink, error) {
		return newSink(spec, nil)
	})
}

// RunSpec executes a controlled spec: the scenario runs once,
// continuously, with the spec's controller observing every epoch
// window and actuating at its boundary. It is a pure function of
// (spec, seed) — the controller is deterministic — so repeated runs
// are byte-identical, which is what lets controlled specs ride the
// sweep, shard, and coordinator machinery unchanged.
func RunSpec(spec farm.Spec, seed int64) (*Result, error) {
	cs := spec.Control
	if cs == nil {
		return nil, fmt.Errorf("control: spec %s has no Control — use farm.Run for open-loop runs", spec.Name)
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	res := &Result{Controller: cs.Controller}
	sink, err := newSink(spec, res)
	if err != nil {
		return nil, err
	}
	inner := spec
	inner.Control = nil
	if res.Metrics, err = farm.RunStream(inner, seed, cs.Epoch, sink); err != nil {
		return nil, err
	}
	return res, nil
}

// newSink builds the window sink that runs spec's controller, logging
// the windows it sees and the actions it takes into res unless res is
// nil.
func newSink(spec farm.Spec, res *Result) (farm.StreamSink, error) {
	ctrl, err := New(*spec.Control, spec)
	if err != nil {
		return nil, err
	}
	return func(w *farm.Window, act *farm.Actuator) error {
		if res != nil {
			// Snapshots are double-buffered and reused two windows
			// later; deep-copy what we retain.
			res.Windows = append(res.Windows, *w.Clone())
		}
		if w.Final {
			// Nothing follows the final window; deciding on it would
			// only clutter the action log.
			return nil
		}
		acts, err := ctrl.Observe(w, act)
		if err != nil {
			return err
		}
		for _, a := range acts {
			applied, err := apply(a, act)
			if err != nil {
				return err
			}
			if oc, ok := ctrl.(OutcomeObserver); ok {
				oc.ActionOutcome(a, applied.Applied)
			}
			applied.Window = w.Index
			if res != nil {
				res.Actions = append(res.Actions, applied)
			}
			observeAction(act.Observer(), w, applied)
		}
		return nil
	}, nil
}

// observeAction publishes one controller decision to the run's
// observability sinks (observation only — the action log itself is
// the source of truth).
func observeAction(o *obs.RunObserver, w *farm.Window, applied AppliedAction) {
	if o == nil {
		return
	}
	if applied.Applied && o.Metrics != nil {
		o.Metrics.Actuations.Inc()
	}
	if o.Trace != nil {
		o.Trace.Emit(obs.TraceEvent{
			Phase: 'i', Track: "control",
			Name: applied.Action.Kind.String(), At: w.End,
			Args: map[string]any{
				"window":  applied.Window,
				"applied": applied.Applied,
				"note":    applied.Note,
			},
		})
	}
}

// apply actuates one controller action. Soft failures — a threshold on
// an untunable group, a re-plan that does not fit the farm — are
// recorded as unapplied; hard errors (a controller handing back a
// malformed reallocation) abort the run.
func apply(a Action, act *farm.Actuator) (AppliedAction, error) {
	out := AppliedAction{Action: a}
	switch a.Kind {
	case ActionSetThreshold:
		t, err := act.SetGroupThreshold(a.Group, a.Threshold)
		if err != nil {
			out.Note = err.Error()
			return out, nil
		}
		out.Applied = true
		out.Note = fmt.Sprintf("threshold %.3gs", t)
		return out, nil
	case ActionRespec:
		if why := pinned(act); why != "" {
			out.Note = why
			return out, nil
		}
		prior, err := farm.WorkloadRate(act.Spec())
		if err != nil {
			out.Note = err.Error()
			return out, nil
		}
		if err := act.SetWorkloadRate(a.Rate); err != nil {
			out.Note = err.Error()
			return out, nil
		}
		next, disks, err := replan(act, act.Spec())
		if err != nil {
			return out, fmt.Errorf("control: re-planning at rate %.4g: %w", a.Rate, err)
		}
		if next == nil {
			// Skipped, so the live spec must keep reporting the rate the
			// standing allocation was actually planned at.
			if err := act.SetWorkloadRate(prior); err != nil {
				return out, err
			}
			out.Note = fmt.Sprintf("plan at rate %.4g needs %d disks, farm has %d", a.Rate, disks, act.FarmSize())
			return out, nil
		}
		moved, bytes, err := act.Realloc(next)
		if err != nil {
			return out, fmt.Errorf("control: reallocating at rate %.4g: %w", a.Rate, err)
		}
		out.Applied = true
		out.MovedFiles = moved
		out.MovedBytes = bytes
		out.Note = fmt.Sprintf("replanned at %.4g req/s onto %d disks, moved %d files", a.Rate, disks, moved)
		return out, nil
	case ActionRealloc:
		if a.Assign == nil {
			out.Note = a.Plan
			return out, nil
		}
		moved, bytes, err := act.Realloc(a.Assign)
		if err != nil {
			return out, fmt.Errorf("control: reallocating (%s): %w", a.Plan, err)
		}
		out.Applied = true
		out.MovedFiles = moved
		out.MovedBytes = bytes
		out.Note = fmt.Sprintf("%s, moved %d files", a.Plan, moved)
		return out, nil
	default:
		return out, fmt.Errorf("control: unknown action kind %d", int(a.Kind))
	}
}
