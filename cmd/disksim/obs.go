package main

// The CLI face of the observability layer (internal/obs): -trace-out
// and -telemetry-out attach file sinks to a single run, -metrics-addr
// serves the live registry. All three are observation-only — the
// simulation's results are byte-identical with or without them — and
// the file sinks flush on every exit path, SIGINT included, the same
// way the pprof machinery does.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"diskpack/internal/control"
	"diskpack/internal/farm"
	"diskpack/internal/obs"
)

// metricsHeaderTimeout bounds how long a -metrics-addr server waits for
// a client's request headers, so a stalled scraper cannot pin a
// connection.
const metricsHeaderTimeout = 10 * time.Second

// obsOutputs holds the live observability sinks of one CLI invocation:
// the trace recorder and telemetry writer bound to their output files,
// the metrics server, and the SIGINT plumbing that turns the first
// interrupt into a clean mid-run abort (so partial output still
// flushes). A nil *obsOutputs is the disabled state — every method is
// nil-safe — so call sites never branch on whether -trace-out was set.
type obsOutputs struct {
	observer *obs.RunObserver
	rec      *obs.TraceRecorder
	traceF   *os.File
	tw       *obs.TelemetryWriter
	srv      *http.Server
	sigc     chan os.Signal
	restore  *obs.RunObserver // previous farm observer, re-installed by stop
	stopOnce sync.Once
}

// startObs wires the observability flags into a running obsOutputs:
// output files are created eagerly (a bad path must fail before the
// run, not after it), the metrics server starts listening, and the
// assembled RunObserver is installed as the process-wide farm observer.
// With no flag set it returns nil, the fully-disabled state.
func startObs(traceOut, telemetryOut, metricsAddr string) (ob *obsOutputs, err error) {
	if traceOut == "" && telemetryOut == "" && metricsAddr == "" {
		return nil, nil
	}
	ob = &obsOutputs{}
	defer func() {
		// Abandon half-built outputs on error so a bad -metrics-addr
		// does not leak an open trace file.
		if err != nil {
			ob.stop()
		}
	}()
	reg := obs.NewRegistry()
	ob.observer = &obs.RunObserver{Metrics: obs.NewRunMetrics(reg, farm.RespBuckets())}
	if traceOut != "" {
		ob.traceF, err = os.Create(traceOut)
		if err != nil {
			return nil, fmt.Errorf("-trace-out: %w", err)
		}
		ob.rec = obs.NewTraceRecorder()
		ob.observer.Trace = ob.rec
	}
	if telemetryOut != "" {
		f, err := os.Create(telemetryOut)
		if err != nil {
			return nil, fmt.Errorf("-telemetry-out: %w", err)
		}
		ob.tw = obs.NewTelemetryWriter(f)
		ob.observer.Telemetry = ob.tw
	}
	if metricsAddr != "" {
		ln, err := net.Listen("tcp", metricsAddr)
		if err != nil {
			return nil, fmt.Errorf("-metrics-addr: %w", err)
		}
		ob.srv = &http.Server{Handler: obs.NewServeMux(reg), ReadHeaderTimeout: metricsHeaderTimeout}
		go ob.srv.Serve(ln)
		fmt.Fprintf(os.Stderr, "disksim: metrics on http://%s/metrics\n", ln.Addr())
	}
	if ob.files() {
		// The first SIGINT/SIGTERM requests a clean abort: the run stops
		// at the next window boundary with obs.ErrInterrupted and the
		// deferred stop flushes whatever was recorded. Deregistering
		// immediately after means a second Ctrl-C kills by default
		// delivery instead of being swallowed.
		var interrupted atomic.Bool
		ob.observer.Interrupt = interrupted.Load
		ob.sigc = make(chan os.Signal, 1)
		signal.Notify(ob.sigc, os.Interrupt, syscall.SIGTERM)
		go func(sigc chan os.Signal) {
			if _, ok := <-sigc; ok {
				interrupted.Store(true)
				signal.Stop(sigc)
			}
		}(ob.sigc)
	}
	ob.restore = farm.SetRunObserver(ob.observer)
	return ob, nil
}

// files reports whether any file sink is attached (an open-loop run
// then streams so windows exist, and SIGINT aborts it gracefully).
func (ob *obsOutputs) files() bool {
	return ob != nil && (ob.rec != nil || ob.tw != nil)
}

// beginRun writes the telemetry header for the run about to start.
// No-op without a telemetry sink.
func (ob *obsOutputs) beginRun(spec farm.Spec, seed int64) error {
	if ob == nil || ob.tw == nil {
		return nil
	}
	return ob.tw.WriteHeader(obs.TelemetryHeader{
		Spec:           spec.Name,
		Seed:           seed,
		Epoch:          obsEpoch(spec),
		IdleGapBuckets: farm.IdleGapBuckets(),
		RespBuckets:    farm.RespBuckets(),
	})
}

// obsEpoch is the telemetry window length of a single observed run:
// a controlled spec's own epoch, or the control plane's default for
// open-loop runs (which stream through RunStream solely so windows
// exist to report).
func obsEpoch(spec farm.Spec) float64 {
	if spec.Control != nil && spec.Control.Epoch > 0 {
		return spec.Control.Epoch
	}
	return control.DefaultEpoch
}

// runErr maps a run error to its CLI form: an observer-requested abort
// becomes a message pointing at the flushed partial output (the
// deferred stop has not run yet, but is guaranteed to).
func (ob *obsOutputs) runErr(err error) error {
	if errors.Is(err, obs.ErrInterrupted) {
		return fmt.Errorf("%w — partial trace/telemetry flushed", err)
	}
	return err
}

// stop tears the outputs down in sink order: the trace file is
// rendered and closed, the telemetry writer flushed and closed, the
// metrics server shut down, and the prior farm observer re-installed.
// Idempotent (the startObs error path and run's defer both call it)
// and nil-safe; the first error wins.
func (ob *obsOutputs) stop() (err error) {
	if ob == nil {
		return nil
	}
	ob.stopOnce.Do(func() {
		farm.SetRunObserver(ob.restore)
		if ob.sigc != nil {
			signal.Stop(ob.sigc)
			close(ob.sigc)
		}
		if ob.traceF != nil {
			werr := error(nil)
			if ob.rec != nil {
				werr = ob.rec.WriteChromeTrace(ob.traceF)
			}
			if cerr := ob.traceF.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil && err == nil {
				err = fmt.Errorf("-trace-out: %w", werr)
			}
		}
		if cerr := ob.tw.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("-telemetry-out: %w", cerr)
		}
		if ob.srv != nil {
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			if serr := ob.srv.Shutdown(ctx); serr != nil {
				ob.srv.Close()
			}
			cancel()
		}
	})
	return err
}
