package jobstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func open(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func spec(n int) json.RawMessage {
	return json.RawMessage(fmt.Sprintf(`{"target":"T%d"}`, n))
}

func TestCreateGetListRoundTrip(t *testing.T) {
	s := open(t, t.TempDir())
	r1, err := s.Create("alice", spec(1))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Create("bob", spec(2))
	if err != nil {
		t.Fatal(err)
	}
	if r1.ID != "d-000001" || r2.ID != "d-000002" {
		t.Fatalf("IDs %s, %s: want d-000001, d-000002", r1.ID, r2.ID)
	}
	got, err := s.Get(r1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tenant != "alice" || got.State != Pending || string(got.Spec) != string(spec(1)) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	all, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 || all[0].ID != r1.ID || all[1].ID != r2.ID {
		t.Fatalf("list = %+v", all)
	}
	if _, err := s.Get("d-999999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing job error = %v, want ErrNotFound", err)
	}
}

func TestClaimRenewFinishLifecycle(t *testing.T) {
	s := open(t, t.TempDir())
	created, _ := s.Create("alice", spec(1))

	rec, recovered, ok, err := s.Claim("replica-a", time.Minute, nil)
	if err != nil || !ok || recovered {
		t.Fatalf("claim = %+v, recovered %v, ok %v, err %v", rec, recovered, ok, err)
	}
	if rec.ID != created.ID || rec.State != Running || rec.Owner != "replica-a" || rec.Attempts != 1 {
		t.Fatalf("claimed record %+v", rec)
	}
	if rec.StartedMS == 0 || rec.LeaseExpiresMS == 0 {
		t.Fatalf("claim did not stamp start/lease: %+v", rec)
	}

	// Nothing else to claim.
	if _, _, ok, _ := s.Claim("replica-b", time.Minute, nil); ok {
		t.Fatal("second claim should find nothing")
	}

	// Renew by the owner works; by an impostor fails.
	if _, err := s.Renew(rec.ID, "replica-a", time.Minute); err != nil {
		t.Fatalf("renew: %v", err)
	}
	if _, err := s.Renew(rec.ID, "replica-b", time.Minute); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("impostor renew error = %v, want ErrLeaseLost", err)
	}

	// Finish with a result payload.
	fin, err := s.Finish(rec.ID, "replica-a", Done, json.RawMessage(`{"ok":true}`), "")
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != Done || fin.Owner != "" || fin.FinishedMS == 0 || string(fin.Result) != `{"ok":true}` {
		t.Fatalf("finished record %+v", fin)
	}
	// A late Finish from a runner that lost the race is rejected.
	if _, err := s.Finish(rec.ID, "replica-a", Done, nil, ""); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("double finish error = %v, want ErrLeaseLost", err)
	}
}

// TestLeaseExpiryRecovery: a job whose owner stops renewing becomes
// claimable by another replica, flagged as recovered, with the attempt
// and recovery counters advanced.
func TestLeaseExpiryRecovery(t *testing.T) {
	dir := t.TempDir()
	a, b := open(t, dir), open(t, dir) // two replica handles on one store
	s1, _ := a.Create("alice", spec(1))

	clock := time.Now()
	a.SetClock(func() time.Time { return clock })
	b.SetClock(func() time.Time { return clock })

	if _, _, ok, _ := a.Claim("replica-a", 50*time.Millisecond, nil); !ok {
		t.Fatal("initial claim failed")
	}
	// Lease still live: replica B sees nothing.
	if _, _, ok, _ := b.Claim("replica-b", time.Minute, nil); ok {
		t.Fatal("claim before lease expiry should find nothing")
	}
	clock = clock.Add(100 * time.Millisecond) // replica A "crashed"
	rec, recovered, ok, err := b.Claim("replica-b", time.Minute, nil)
	if err != nil || !ok || !recovered {
		t.Fatalf("recovery claim: rec %+v, recovered %v, ok %v, err %v", rec, recovered, ok, err)
	}
	if rec.ID != s1.ID || rec.Owner != "replica-b" || rec.Attempts != 2 || rec.Recovered != 1 {
		t.Fatalf("recovered record %+v", rec)
	}
	// The dead replica's writes are now rejected.
	if _, err := a.Renew(rec.ID, "replica-a", time.Minute); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("dead replica renew error = %v, want ErrLeaseLost", err)
	}
	if _, err := a.Finish(rec.ID, "replica-a", Done, nil, ""); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("dead replica finish error = %v, want ErrLeaseLost", err)
	}
}

// TestRecoveryBeforeNewWork: an orphaned job is re-attached before any
// pending job is started, even when fairness would favor another
// tenant's pending work.
func TestRecoveryBeforeNewWork(t *testing.T) {
	s := open(t, t.TempDir())
	clock := time.Now()
	s.SetClock(func() time.Time { return clock })

	orphanned, _ := s.Create("heavy", spec(1))
	s.Create("light", spec(2))
	if _, _, ok, _ := s.Claim("replica-a", 10*time.Millisecond, nil); !ok {
		t.Fatal("claim failed")
	}
	clock = clock.Add(time.Second)
	rec, recovered, ok, _ := s.Claim("replica-b", time.Minute, nil)
	if !ok || !recovered || rec.ID != orphanned.ID {
		t.Fatalf("want orphan %s recovered first, got %+v (recovered %v)", orphanned.ID, rec, recovered)
	}
}

// TestFairShareClaimOrder: with tenants at equal weight, claims
// alternate; with asymmetric weights, service is proportional.
func TestFairShareClaimOrder(t *testing.T) {
	s := open(t, t.TempDir())
	// heavy floods 8 jobs in first, light adds 2 afterwards.
	for i := 0; i < 8; i++ {
		s.Create("heavy", spec(i))
	}
	for i := 0; i < 2; i++ {
		s.Create("light", spec(100+i))
	}
	weights := map[string]float64{"heavy": 1, "light": 1}
	var order []string
	for {
		rec, _, ok, err := s.Claim("r", time.Minute, weights)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		order = append(order, rec.Tenant)
		if _, err := s.Finish(rec.ID, "r", Done, nil, ""); err != nil {
			t.Fatal(err)
		}
	}
	if len(order) != 10 {
		t.Fatalf("claimed %d jobs, want 10", len(order))
	}
	// Both light jobs must be served within the first four claims: the
	// fair-share ratio keeps the flooding tenant from starving light.
	lightServed := 0
	for _, tn := range order[:4] {
		if tn == "light" {
			lightServed++
		}
	}
	if lightServed != 2 {
		t.Fatalf("light served %d of first 4 claims, want 2 (order %v)", lightServed, order)
	}
}

func TestFairShareWeights(t *testing.T) {
	s := open(t, t.TempDir())
	for i := 0; i < 9; i++ {
		s.Create("gold", spec(i))
		s.Create("basic", spec(100+i))
	}
	weights := map[string]float64{"gold": 3, "basic": 1}
	goldFirst8 := 0
	for i := 0; i < 8; i++ {
		rec, _, ok, err := s.Claim("r", time.Minute, weights)
		if err != nil || !ok {
			t.Fatalf("claim %d: ok %v err %v", i, ok, err)
		}
		if rec.Tenant == "gold" {
			goldFirst8++
		}
		s.Finish(rec.ID, "r", Done, nil, "")
	}
	// 3:1 weights → 6 of the first 8 claims go to gold.
	if goldFirst8 != 6 {
		t.Fatalf("gold got %d of first 8 claims, want 6", goldFirst8)
	}
}

func TestCancelPendingAndRunning(t *testing.T) {
	s := open(t, t.TempDir())
	p, _ := s.Create("alice", spec(1))
	r, _ := s.Create("alice", spec(2))

	// Cancel a pending job: immediate terminal.
	got, err := s.RequestCancel(p.ID)
	if err != nil || got.State != Cancelled {
		t.Fatalf("pending cancel: %+v, %v", got, err)
	}
	if _, err := s.RequestCancel(p.ID); !errors.Is(err, ErrTerminal) {
		t.Fatalf("re-cancel error = %v, want ErrTerminal", err)
	}

	// Cancel a running job: flag observed at renew, owner finishes it.
	claimed, _, ok, _ := s.Claim("r", time.Minute, nil)
	if !ok || claimed.ID != r.ID {
		t.Fatalf("claimed %+v, want %s", claimed, r.ID)
	}
	if got, err := s.RequestCancel(r.ID); err != nil || got.State != Running || !got.CancelRequested {
		t.Fatalf("running cancel: %+v, %v", got, err)
	}
	renewed, err := s.Renew(r.ID, "r", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if !renewed.CancelRequested {
		t.Fatal("renew did not surface CancelRequested")
	}
	if fin, err := s.Finish(r.ID, "r", Cancelled, nil, ""); err != nil || fin.State != Cancelled {
		t.Fatalf("cancel finish: %+v, %v", fin, err)
	}
}

// TestReleaseHandoff: a graceful drain returns the job to the queue and
// another replica claims it as fresh pending work (not a recovery —
// recovery semantics are for expired leases).
func TestReleaseHandoff(t *testing.T) {
	s := open(t, t.TempDir())
	created, _ := s.Create("alice", spec(1))
	s.Claim("replica-a", time.Minute, nil)
	rel, err := s.Release(created.ID, "replica-a")
	if err != nil || rel.State != Pending || rel.Owner != "" {
		t.Fatalf("release: %+v, %v", rel, err)
	}
	rec, recovered, ok, _ := s.Claim("replica-b", time.Minute, nil)
	if !ok || rec.ID != created.ID || rec.Owner != "replica-b" {
		t.Fatalf("post-release claim: %+v ok=%v", rec, ok)
	}
	if recovered {
		t.Fatal("released job should not claim as recovered")
	}
	if rec.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", rec.Attempts)
	}
}

// TestConcurrentClaimsNoDoubleOwnership: many goroutines over several
// store handles (simulating replicas) never claim the same job twice.
func TestConcurrentClaimsNoDoubleOwnership(t *testing.T) {
	dir := t.TempDir()
	seed := open(t, dir)
	const jobs = 40
	for i := 0; i < jobs; i++ {
		if _, err := seed.Create(fmt.Sprintf("t%d", i%3), spec(i)); err != nil {
			t.Fatal(err)
		}
	}
	const replicas = 8
	var (
		mu      sync.Mutex
		claimed = make(map[string]string)
		wg      sync.WaitGroup
	)
	for r := 0; r < replicas; r++ {
		owner := fmt.Sprintf("replica-%d", r)
		h := open(t, dir)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				rec, _, ok, err := h.Claim(owner, time.Minute, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if !ok {
					return
				}
				mu.Lock()
				if prev, dup := claimed[rec.ID]; dup {
					t.Errorf("job %s claimed by both %s and %s", rec.ID, prev, owner)
				}
				claimed[rec.ID] = owner
				mu.Unlock()
				if _, err := h.Finish(rec.ID, owner, Done, nil, ""); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if len(claimed) != jobs {
		t.Fatalf("claimed %d jobs, want %d", len(claimed), jobs)
	}
	st, err := seed.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.ByState[Done] != jobs {
		t.Fatalf("stats done = %d, want %d", st.ByState[Done], jobs)
	}
}

// TestWALRecordsTransitions: every lifecycle step leaves an audit line.
func TestWALRecordsTransitions(t *testing.T) {
	s := open(t, t.TempDir())
	rec, _ := s.Create("alice", spec(1))
	s.Claim("r", time.Minute, nil)
	s.Finish(rec.ID, "r", Done, nil, "")
	events, err := ReadWAL(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, ev := range events {
		kinds = append(kinds, ev["event"].(string))
	}
	want := []string{"create", "claim", "finish"}
	if len(kinds) != len(want) {
		t.Fatalf("wal events %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("wal events %v, want %v", kinds, want)
		}
	}
}

// TestStatsByTenant counts non-terminal jobs per tenant (the admission
// control input).
func TestStatsByTenant(t *testing.T) {
	s := open(t, t.TempDir())
	s.Create("alice", spec(1))
	s.Create("alice", spec(2))
	b, _ := s.Create("bob", spec(3))
	s.Claim("r", time.Minute, map[string]float64{}) // claims one (fairness picks alice or bob)
	s.RequestCancel(b.ID)                           // may be pending or running
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range st.ByState {
		total += n
	}
	if total != 3 {
		t.Fatalf("stats cover %d jobs, want 3: %+v", total, st.ByState)
	}
	if st.ByTenant["alice"] == 0 {
		t.Fatalf("alice should have non-terminal jobs: %+v", st.ByTenant)
	}
}

// TestTornRecordSkipped: a stray temp file or corrupt record, in either
// record directory, does not break a scan.
func TestTornRecordSkipped(t *testing.T) {
	s := open(t, t.TempDir())
	s.Create("alice", spec(1))
	if err := writeGarbage(s); err != nil {
		t.Fatal(err)
	}
	all, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 {
		t.Fatalf("list = %d records, want 1 (garbage skipped)", len(all))
	}
	if rec, _, ok, err := s.Claim("r", time.Minute, nil); err != nil || !ok || rec.ID != "d-000001" {
		t.Fatalf("claim past the garbage: %+v ok=%v err=%v", rec, ok, err)
	}
}

// TestCreateSkipsLiveIDsAfterSeqLoss: the seq counter is not fsynced, so
// a crash can rewind it and an operator can remove it. Create must then
// skip the IDs whose records exist — live under jobs/ or, finished and
// cancelled, only under done/ — instead of reissuing one and renaming a
// new record over a job's.
func TestCreateSkipsLiveIDsAfterSeqLoss(t *testing.T) {
	s := open(t, t.TempDir())
	for i := 1; i <= 3; i++ {
		if _, err := s.Create("alice", spec(i)); err != nil {
			t.Fatal(err)
		}
	}
	// d-000001 finishes and d-000003 is cancelled while pending: both
	// leave jobs/. d-000002 stays live.
	if rec, _, ok, err := s.Claim("r", time.Minute, nil); err != nil || !ok || rec.ID != "d-000001" {
		t.Fatalf("claim: %+v ok=%v err=%v", rec, ok, err)
	}
	if _, err := s.Finish("d-000001", "r", Done, nil, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RequestCancel("d-000003"); err != nil {
		t.Fatal(err)
	}
	for id, sub := range map[string]string{"d-000001": doneDir, "d-000002": liveDir, "d-000003": doneDir} {
		for _, dir := range []string{liveDir, doneDir} {
			_, err := os.Stat(s.recordPath(dir, id))
			if (err == nil) != (dir == sub) {
				t.Fatalf("%s under %s/: stat err %v, want it only under %s/", id, dir, err, sub)
			}
		}
	}
	seq := filepath.Join(s.dir, "seq")
	for i, lose := range []func() error{
		func() error { return os.WriteFile(seq, []byte("1\n"), 0o644) }, // rewound by a crash
		func() error { return os.Remove(seq) },
	} {
		if err := lose(); err != nil {
			t.Fatal(err)
		}
		rec, err := s.Create("bob", spec(10+i))
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("d-%06d", 4+i); rec.ID != want {
			t.Fatalf("after seq loss Create issued %s, want the fresh ID %s", rec.ID, want)
		}
	}
	for i := 1; i <= 3; i++ {
		got, err := s.Get(fmt.Sprintf("d-%06d", i))
		if err != nil {
			t.Fatal(err)
		}
		if got.Tenant != "alice" || string(got.Spec) != string(spec(i)) {
			t.Fatalf("job %s was overwritten: %+v", got.ID, got)
		}
	}
}

// writeGarbage drops an unparseable record file and a leftover temp
// file into each record directory.
func writeGarbage(s *Store) error {
	for _, sub := range []string{liveDir, doneDir} {
		for _, name := range []string{"zz-torn.json", "d-000009.tmp123"} {
			if err := os.WriteFile(filepath.Join(s.dir, sub, name), []byte("{not json"), 0o644); err != nil {
				return err
			}
		}
	}
	return nil
}

// TestWALCompactionOnOpen: once wal.jsonl outgrows the threshold, the
// next Open rewrites it keeping only live-job transitions — and the
// compaction loses no job record: every job, live or terminal, is still
// fully present in the store afterwards.
func TestWALCompactionOnOpen(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)

	// One job finished (terminal: its WAL lines are compactable) and one
	// claimed and left running (live: its history must survive).
	s.Create("alice", spec(1))
	s.Create("bob", spec(2))
	first, _, ok, err := s.Claim("replica-a", time.Minute, nil)
	if err != nil || !ok {
		t.Fatalf("claim: ok=%v err=%v", ok, err)
	}
	if _, err := s.Finish(first.ID, "replica-a", Done, json.RawMessage(`{"ok":true}`), ""); err != nil {
		t.Fatal(err)
	}
	second, _, ok, err := s.Claim("replica-a", time.Minute, nil)
	if err != nil || !ok {
		t.Fatalf("second claim: ok=%v err=%v", ok, err)
	}
	doneID, liveID := first.ID, second.ID

	before, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	preWAL, err := ReadWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(preWAL) == 0 {
		t.Fatal("setup produced no WAL lines")
	}

	// Force compaction on the next Open.
	oldThreshold := walCompactThreshold
	walCompactThreshold = 1
	defer func() { walCompactThreshold = oldThreshold }()
	s.Close()

	re := open(t, dir)
	after, err := re.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("compaction lost job records: %d before, %d after", len(before), len(after))
	}
	for i := range before {
		if after[i].ID != before[i].ID || after[i].State != before[i].State ||
			after[i].Tenant != before[i].Tenant || string(after[i].Spec) != string(before[i].Spec) {
			t.Fatalf("record %s changed across compaction:\nbefore %+v\nafter  %+v",
				before[i].ID, before[i], after[i])
		}
	}

	events, err := ReadWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	sawCompact, liveLines := false, 0
	for _, ev := range events {
		switch {
		case ev["event"] == "compact":
			sawCompact = true
		case ev["id"] == doneID:
			t.Fatalf("terminal job %s still has WAL transitions after compaction: %v", doneID, ev)
		case ev["id"] == liveID:
			liveLines++
		default:
			t.Fatalf("unexpected WAL line: %v", ev)
		}
	}
	if !sawCompact {
		t.Fatal("compacted WAL is missing the compact marker event")
	}
	if liveLines == 0 {
		t.Fatalf("live job %s lost its WAL history: %v", liveID, events)
	}

	// Below threshold, Open leaves the log alone.
	walCompactThreshold = 1 << 20
	re.Close()
	re2 := open(t, dir)
	again, err := ReadWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(events) {
		t.Fatalf("sub-threshold Open rewrote the WAL: %d lines, want %d", len(again), len(events))
	}
	_ = re2
}
