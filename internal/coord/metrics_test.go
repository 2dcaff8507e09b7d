package coord

import (
	"encoding/json"
	"io"
	"maps"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"diskpack/internal/farm"
)

// TestMetricsEndpoint pins the coordinator's observability satellite:
// lease expiries and duplicate submissions are counted per worker,
// surfaced both in Status and on the /metrics exposition endpoint,
// alongside the live queue-shape gauges.
func TestMetricsEndpoint(t *testing.T) {
	sweep := fixtureSweep()
	co, err := New(sweep, 9, Config{LeaseTimeout: MinLeaseTimeout})
	if err != nil {
		t.Fatal(err)
	}
	clock := time.Now()
	co.now = func() time.Time { return clock }
	srv := startServer(t, co)

	// "doomed" leases two points, one request each, and is never heard
	// from again; after the leases expire, "healthy" steals both the
	// same way — the expiry is charged to the worker that lost the
	// points.
	leaseTwo := func(worker string) []farm.ShardPoint {
		t.Helper()
		var points []farm.ShardPoint
		for i := 0; i < 2; i++ {
			var lease LeaseResponse
			postJSON(t, srv.URL+"/v1/lease", LeaseRequest{Worker: worker}, &lease)
			if len(lease.Points) != 1 {
				t.Fatalf("%s's lease %d granted %d points, want 1", worker, i, len(lease.Points))
			}
			points = append(points, lease.Points[0])
		}
		return points
	}
	doomed := leaseTwo("doomed")
	clock = clock.Add(MinLeaseTimeout + time.Second)
	healthy := leaseTwo("healthy")
	for i := range healthy {
		if healthy[i].Index != doomed[i].Index {
			t.Fatalf("healthy leased point %d, want the expired point %d", healthy[i].Index, doomed[i].Index)
		}
	}

	// One point submitted twice: the second copy is a counted
	// duplicate.
	comp, err := farm.Compile(sweep, 9)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := comp.RunPoint(healthy[0].Index)
	if err != nil {
		t.Fatal(err)
	}
	postJSON(t, srv.URL+"/v1/submit", SubmitRequest{Worker: "healthy", Point: pr}, nil)
	postJSON(t, srv.URL+"/v1/submit", SubmitRequest{Worker: "late", Point: pr}, nil)

	// Nudge the clock so the surviving lease has a visible age (still
	// well inside its timeout).
	clock = clock.Add(heartbeatFloor)

	st := co.Status()
	if st.Expired != 2 {
		t.Errorf("Status.Expired = %d, want 2", st.Expired)
	}
	if st.Duplicates != 1 {
		t.Errorf("Status.Duplicates = %d, want 1", st.Duplicates)
	}
	if st.Done != 1 {
		t.Errorf("Status.Done = %d, want 1", st.Done)
	}

	// Per-worker rows, sorted by name: doomed went silent past one
	// lease timeout (dead, no points), healthy still holds one live
	// lease, late only ever submitted a duplicate.
	if len(st.Workers) != 3 {
		t.Fatalf("Status.Workers has %d rows, want doomed/healthy/late", len(st.Workers))
	}
	for i, want := range []string{"doomed", "healthy", "late"} {
		if st.Workers[i].Name != want {
			t.Fatalf("Workers[%d] = %q, want %q", i, st.Workers[i].Name, want)
		}
	}
	if n := len(st.Workers[0].Points); n != 0 {
		t.Errorf("doomed still shows %d in-flight points after losing its lease", n)
	}
	wantLabel := healthy[1].Label
	if got := st.Workers[1].Points; len(got) != 1 || got[0] != wantLabel {
		t.Errorf("healthy in-flight points %v, want [%s]", got, wantLabel)
	}
	age := heartbeatFloor.Seconds()
	if st.Workers[1].OldestLeaseAgeSeconds != age || st.MaxLeaseAgeSeconds != age {
		t.Errorf("lease ages %v / %v, want %v", st.Workers[1].OldestLeaseAgeSeconds, st.MaxLeaseAgeSeconds, age)
	}
	if st.LiveWorkers != 2 {
		t.Errorf("LiveWorkers = %d, want healthy and late", st.LiveWorkers)
	}

	// The same rows come back over GET /v1/status, labels included.
	stResp, err := http.Get(srv.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	stBody, err := io.ReadAll(stResp.Body)
	stResp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var wire Status
	if err := json.Unmarshal(stBody, &wire); err != nil {
		t.Fatal(err)
	}
	// The wire form carries exactly the queue counters and worker rows.
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(stBody, &fields); err != nil {
		t.Fatal(err)
	}
	keys := slices.Sorted(maps.Keys(fields))
	if got, want := strings.Join(keys, " "), "Done Duplicates Expired Leased LiveWorkers MaxLeaseAgeSeconds Pending Recovered Total Workers"; got != want {
		t.Errorf("/v1/status keys %q, want %q", got, want)
	}
	if len(wire.Workers) != 3 || len(wire.Workers[1].Points) != 1 || wire.Workers[1].Points[0] != wantLabel {
		t.Errorf("/v1/status workers %+v, want healthy holding %q", wire.Workers, wantLabel)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	for _, want := range []string{
		`coord_lease_expiries_total{worker="doomed"} 2`,
		`coord_leases_total{worker="doomed"} 2`,
		`coord_leases_total{worker="healthy"} 2`,
		`coord_duplicate_submits_total{worker="late"} 1`,
		`coord_submits_total{worker="healthy"} 1`,
		`coord_points_done 1`,
		`coord_points_leased 1`,
		`coord_points_pending 4`,
		`coord_workers_live 2`,
		`coord_lease_age_max_seconds 0.05`,
		`coord_point_seconds_bucket`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
	if strings.Contains(string(body), "coord_point_seconds_ewma") {
		t.Errorf("metrics still export the lease-sizing EWMA:\n%s", body)
	}
}

// TestMetricsAuth pins that /metrics sits behind the same token wall
// as the protocol endpoints.
func TestMetricsAuth(t *testing.T) {
	co, err := New(fixtureSweep(), 9, Config{Token: "sekrit"})
	if err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, co)
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("unauthenticated /metrics got %d, want 401", resp.StatusCode)
	}
	req, _ := http.NewRequest("GET", srv.URL+"/metrics", nil)
	req.Header.Set("Authorization", "Bearer sekrit")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("authenticated /metrics got %d, want 200", resp2.StatusCode)
	}
}
