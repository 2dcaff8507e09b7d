package coord

import (
	"net/http"
	"strings"
	"testing"
	"time"
)

// The auth satellite, end to end over loopback: an authenticated
// coordinator serves a correctly-credentialed worker to the
// byte-identical result and turns everyone else away with 401.
func TestTokenAuth(t *testing.T) {
	sweep := fixtureSweep()
	want := directResult(t, sweep, 4)
	co, err := New(sweep, 4, Config{Token: "s3cret"})
	if err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, co)
	ctx := testCtx(t)

	// No token: uniform 401 on every route.
	resp, err := http.Get(srv.URL + "/v1/sweep")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("tokenless GET /v1/sweep: %d, want 401", resp.StatusCode)
	}
	if resp := postJSON(t, srv.URL+"/v1/lease", LeaseRequest{Worker: "w"}, nil); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("tokenless lease: %d, want 401", resp.StatusCode)
	}

	// Wrong token: the worker fails fast (401 is fatal, not retried).
	_, err = Work(ctx, srv.URL, WorkerConfig{Name: "intruder", Parallel: 1, Token: "wrong", Retry: 20 * time.Second})
	if err == nil || !strings.Contains(err.Error(), "401") {
		t.Fatalf("wrong-token worker: %v, want a 401 failure", err)
	}

	// Right token: the grid drains and the report matches.
	done := make(chan error, 1)
	go func() {
		_, werr := Work(ctx, srv.URL, WorkerConfig{Name: "trusted", Parallel: 2, Token: "s3cret"})
		done <- werr
	}()
	res, err := co.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if werr := <-done; werr != nil {
		t.Fatalf("trusted worker: %v", werr)
	}
	if got := resultJSON(t, res); got != want {
		t.Error("authenticated run differs from the single-process run")
	}
}
