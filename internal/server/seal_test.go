package server_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"stochsyn/internal/obs"
	"stochsyn/internal/server"
	"stochsyn/internal/server/client"
)

// readStream reads a job's whole event stream as raw SSE bytes.
func readStream(t *testing.T, base, id string) string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+id+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("events %s: %v", id, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("events %s: %v", id, err)
	}
	return string(body)
}

// waitStatus waits for the job to reach a terminal state and checks it
// is the expected one.
func waitStatus(t *testing.T, c *client.Client, id string, want server.Status) *server.JobView {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	v, err := c.Wait(ctx, id, 2*time.Millisecond)
	if err != nil {
		t.Fatalf("wait %s: %v", id, err)
	}
	if v.Status != want {
		t.Fatalf("job %s ended %s, want %s: %+v", id, v.Status, want, v)
	}
	return v
}

// waitSealed waits until the event log of every job the server holds
// is sealed; a job's log is sealed shortly after the job finishes.
func waitSealed(t *testing.T, srv *server.Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := srv.Snapshot()
		if st.JobLogs.Sealed == st.Jobs.Total {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d job logs sealed", st.JobLogs.Sealed, st.Jobs.Total)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSealedStreamEveryTerminalPath ends one job down each terminal
// path — completed, cache-born, singleflight follower, cancelled while
// running, failed, cancelled while queued — and reads each job's event
// stream only after the job finished, when it is replayed from the
// sealed log. The server's global ring, which every job fork forwards
// to, says what each job emitted: the late stream must be exactly
// those events as the job's own ring numbered them, ending with the
// one job_finished. The global ring also pins that no event follows
// job_finished on a job's fork.
func TestSealedStreamEveryTerminalPath(t *testing.T) {
	ctx := context.Background()
	o := obs.New()
	srv, ts, c := newTestServer(t, server.Config{
		Workers: 1, WorkerBudget: 1, QueueDepth: 1, CacheSize: 16, Obs: o,
		DrainTimeout: 10 * time.Second,
	})
	defer ts.Close()
	defer srv.Close()
	paths := map[string]string{} // terminal path -> job id

	done, err := c.Submit(ctx, easySpec(61))
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, c, done.ID, server.StatusCompleted)
	paths["completed"] = done.ID

	cached, err := c.Submit(ctx, easySpec(61))
	if err != nil || !cached.Cached {
		t.Fatalf("resubmission not cache-born: %+v %v", cached, err)
	}
	paths["cache-born"] = cached.ID

	short := slowSpec(62)
	short.Options.Budget = 200_000
	leader, err := c.Submit(ctx, short)
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, c, leader.ID)
	follower, err := c.Submit(ctx, short)
	if err != nil {
		t.Fatal(err)
	}
	if fv := waitStatus(t, c, follower.ID, server.StatusCompleted); !fv.Deduped {
		t.Fatalf("follower did not adopt its leader's result: %+v", fv)
	}
	paths["follower"] = follower.ID

	// One worker and a queue of one: with the hard leader running and
	// another job queued, cancelling the leader finds no queue slot for
	// its follower, which fails.
	hard, err := c.Submit(ctx, hardSpec(63))
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, c, hard.ID)
	doomed, err := c.Submit(ctx, hardSpec(63))
	if err != nil {
		t.Fatal(err)
	}
	queued, err := c.Submit(ctx, hardSpec(64))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Cancel(ctx, queued.ID); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, c, queued.ID, server.StatusCancelled)
	paths["cancelled-queued"] = queued.ID
	if _, err := c.Cancel(ctx, hard.ID); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, c, hard.ID, server.StatusCancelled)
	paths["cancelled-running"] = hard.ID
	waitStatus(t, c, doomed.ID, server.StatusFailed)
	paths["failed"] = doomed.ID

	waitSealed(t, srv)
	streams := map[string]string{}
	for path, id := range paths {
		streams[path] = readStream(t, ts.URL, id)
	}
	st := srv.Snapshot()
	if st.JobLogs.Sealed != len(paths)+1 || st.JobLogs.Bytes <= 0 {
		t.Errorf("job_logs = %+v, want the logs of all %d jobs sealed", st.JobLogs, len(paths)+1)
	}
	if gauge := fmt.Sprintf("\nstochsyn_job_log_bytes %d\n", st.JobLogs.Bytes); !strings.Contains(mustGET(t, ts.URL+"/metrics"), gauge) {
		t.Errorf("/metrics lacks %q", strings.TrimSpace(gauge))
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	global := o.Trace().Events()
	if len(global) >= obs.DefaultTraceCap {
		t.Fatalf("global ring full (%d events): it no longer holds every job event", len(global))
	}
	for path, id := range paths {
		var want strings.Builder
		seq, last := uint64(0), ""
		for _, ev := range global {
			if ev.Attrs["job"] != id {
				continue
			}
			seq++
			ev.Seq = seq
			data, err := json.Marshal(ev)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&want, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Name, data)
			last = ev.Name
		}
		if last != "job_finished" {
			t.Errorf("%s: the job's last event is %q; nothing may follow job_finished", path, last)
		}
		got := streams[path]
		if n := strings.Count(got, "event: job_finished\n"); n != 1 {
			t.Errorf("%s: stream carries %d job_finished events, want 1:\n%s", path, n, got)
		}
		if got != want.String() {
			t.Errorf("%s: late stream differs from the job's events\ngot:\n%s\nwant:\n%s", path, got, want.String())
		}
	}
}
