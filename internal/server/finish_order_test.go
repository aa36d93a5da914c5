//go:build unix

package server_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"repro/internal/jobstore"
	"repro/internal/server"
)

// A job's terminal state must be durable before the owning replica
// reports it: otherwise the owner answers "done" while a peer reading
// the shared store still answers "running". The test holds the store's
// cross-process lock while the job finishes, so the owner's store.Finish
// cannot complete — and until it does the owner must keep reporting the
// job as running.
func TestOwnerReportsTerminalOnlyAfterStore(t *testing.T) {
	pr, _ := fixture(t)
	storeDir, journalDir := t.TempDir(), t.TempDir()
	_, ts := newStoreServer(t, storeDir, journalDir, "replica-a", nil)
	peer, err := jobstore.Open(storeDir) // what any other replica sees
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()

	// flock(2) locks belong to the open file description, so a second
	// descriptor excludes the server's handle like another process would.
	lockf, err := os.OpenFile(filepath.Join(storeDir, ".lock"), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer lockf.Close() // closing drops the lock on every exit path
	flock := func(how int) {
		t.Helper()
		if err := syscall.Flock(int(lockf.Fd()), how); err != nil {
			t.Fatal(err)
		}
	}

	// Take the lock while the job is running. A job that beat the lock to
	// its store.Finish proves nothing, so retry with a longer one.
	//
	// Every GET the test makes while it holds the lock must be served by
	// the owner's in-memory mirror: one that falls through to Store.Get
	// waits on the lock the test holds, and the test hangs. The store
	// record says "running" from the moment Claim marks it, before the
	// claim loop registers the mirror; only the mirror knows how many
	// generations have run. So the lock is taken only once the job
	// reports generation progress.
	var job server.JobJSON
	gens := 100
	for attempt := 0; ; attempt++ {
		req := tinyDesign(pr.Proteins[0].Name(), gens)
		req.MinGenerations, req.StallGens, req.NoFitnessCache = gens, gens, true
		job = submitJob(t, ts, req)
		seen := waitJob(t, ts, job.ID, 30*time.Second, func(j server.JobJSON) bool {
			return (j.State == server.JobRunning && j.Generations > 0) || j.State.Terminal()
		})
		if seen.State == server.JobRunning {
			flock(syscall.LOCK_EX)
			// A finished job's record has left jobs/ for done/.
			data, err := os.ReadFile(filepath.Join(storeDir, "jobs", job.ID+".json"))
			if err != nil && !os.IsNotExist(err) {
				t.Fatal(err)
			}
			var rec jobstore.Record
			if err == nil {
				if err := json.Unmarshal(data, &rec); err != nil {
					t.Fatal(err)
				}
			}
			if rec.State == jobstore.Running {
				break
			}
			flock(syscall.LOCK_UN)
		}
		if attempt == 3 {
			t.Fatalf("a %d-generation job finished before the test could take the store lock", gens)
		}
		gens *= 4
	}

	// The run needs nothing from the store; let it reach its last
	// generation, then give the owner time to (wrongly) publish.
	last := waitJob(t, ts, job.ID, 30*time.Second, func(j server.JobJSON) bool {
		return j.Generations >= gens || j.State.Terminal()
	})
	for deadline := time.Now().Add(300 * time.Millisecond); !last.State.Terminal() && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
		getJSON(t, ts.URL+"/v1/designs/"+job.ID, &last)
	}
	if last.State.Terminal() {
		t.Fatalf("owner reports %s while the store transition is still blocked", last.State)
	}

	flock(syscall.LOCK_UN)
	done := waitJob(t, ts, job.ID, 30*time.Second, terminal)
	rec, err := peer.Get(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != server.JobDone || rec.State != jobstore.Done {
		t.Fatalf("owner says %s (%s), store says %s", done.State, done.Error, rec.State)
	}
	// The durable payload is the same terminal document the owner serves.
	var stored server.JobJSON
	if err := json.Unmarshal(rec.Result, &stored); err != nil {
		t.Fatal(err)
	}
	if stored.State != done.State || stored.Sequence != done.Sequence ||
		stored.Finished == nil || done.Finished == nil || !stored.Finished.Equal(*done.Finished) {
		t.Fatalf("stored payload %+v differs from the owner's view %+v", stored, done)
	}
}

// Admission takes one snapshot of the store's live set per submit: the
// tenant cap and the backlog bound are answered from the same scan. A
// submit wakes the claim loop, so the replica's one loop is kept inside
// a long job for the whole test (and its lease renewals an hour away):
// every scan and every record read counted is the submit handler's, and
// a second snapshot would show in both.
func TestOneStoreScanPerSubmit(t *testing.T) {
	pr, _ := fixture(t)
	var store *jobstore.Store
	_, ts := newStoreServer(t, t.TempDir(), t.TempDir(), "replica-a", func(c *server.Config) {
		store = c.Store
		c.Tenants = []server.Tenant{{Name: "capped", Key: "capped-key", MaxActiveJobs: 8}}
		c.PollInterval = time.Hour
		c.JobLease = 3 * time.Hour
	})
	submit := func(design server.DesignRequest) {
		t.Helper()
		body, _ := json.Marshal(design)
		req, _ := http.NewRequest("POST", ts.URL+"/v1/designs", bytes.NewReader(body))
		req.Header.Set("X-API-Key", "capped-key")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: status %d", resp.StatusCode)
		}
	}
	submit(longDesign(pr.Proteins[0].Name()))
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if st, err := store.LiveStats(); err == nil && st.ByState[jobstore.Running] == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("claim loop never picked up the blocker job")
		}
	}
	for i := 0; i < 3; i++ {
		scans, reads := store.Scans(), store.RecordReads()
		submit(tinyDesign(pr.Proteins[0].Name(), 2))
		if got := store.Scans() - scans; got != 1 {
			t.Fatalf("submit %d made %d store scans, want 1", i, got)
		}
		// The snapshot reads the live set: the blocker and the i jobs
		// queued behind it.
		if got, want := store.RecordReads()-reads, int64(1+i); got != want {
			t.Fatalf("submit %d read %d records, want %d", i, got, want)
		}
	}
}

// A submit on this replica wakes its own claim loop: with the poll tick
// an hour away the job still starts at once. Polling remains what finds
// work this replica was not told about — a job a peer's handle created
// is picked up by a second replica at its own tick, while the first,
// unwoken, sleeps on.
func TestSubmitWakesIdleClaimLoop(t *testing.T) {
	pr, _ := fixture(t)
	storeDir, journalDir := t.TempDir(), t.TempDir()
	var storeA *jobstore.Store
	_, tsA := newStoreServer(t, storeDir, journalDir, "replica-a", func(c *server.Config) {
		storeA = c.Store
		c.PollInterval = time.Hour
	})
	// Open scans once; the second scan is the loop's claim on the empty
	// store, after which it has only the wake to wait for.
	for deadline := time.Now().Add(10 * time.Second); storeA.Scans() < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("claim loop never polled the store")
		}
	}
	job := submitJob(t, tsA, tinyDesign(pr.Proteins[0].Name(), 2))
	waitJob(t, tsA, job.ID, 10*time.Second, terminal)

	newStoreServer(t, storeDir, journalDir, "replica-b", nil) // polls every 20 ms
	peer, err := jobstore.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	raw, _ := json.Marshal(tinyDesign(pr.Proteins[0].Name(), 2))
	rec, err := peer.Create("public", raw)
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if got, err := peer.Get(rec.ID); err == nil && got.State == jobstore.Done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the polling replica never ran a job it was not woken for")
		}
	}
	events, err := jobstore.ReadWAL(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if ev["event"] == "claim" && ev["id"] == rec.ID && ev["owner"] != "replica-b" {
			t.Fatalf("job %s was claimed by %v, want the polling replica", rec.ID, ev["owner"])
		}
	}
}
