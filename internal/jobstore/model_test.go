package jobstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"
)

// modelJob is what the trivial model remembers of one job.
type modelJob struct {
	tenant    string
	state     State
	owner     string
	leaseMS   int64
	attempts  int
	recovered int
	cancel    bool
}

func (j *modelJob) matches(r Record) bool {
	return r.Tenant == j.tenant && r.State == j.state && r.Owner == j.owner &&
		r.LeaseExpiresMS == j.leaseMS && r.Attempts == j.attempts &&
		r.Recovered == j.recovered && r.CancelRequested == j.cancel
}

type storeModel map[string]*modelJob

func (m storeModel) ids() []string {
	ids := make([]string, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// claimable is what Claim may hand out at nowMS: the oldest orphan if
// there is one (then nothing else), otherwise the oldest pending job of
// each tenant. Which tenant wins is fair-share's business, tested on
// its own.
func (m storeModel) claimable(nowMS int64) (orphan string, heads map[string]bool) {
	heads = map[string]bool{}
	seen := map[string]bool{}
	for _, id := range m.ids() {
		j := m[id]
		switch {
		case j.state == Running && j.leaseMS < nowMS:
			return id, nil
		case j.state == Pending && !seen[j.tenant]:
			seen[j.tenant] = true
			heads[id] = true
		}
	}
	return "", heads
}

// TestStoreModelWithCrashes drives two handles on one store directory
// with random Create/Claim/Renew/Release/Finish/RequestCancel calls, a
// clock that runs leases out and a seq file that gets lost, against a
// model that is a map. One mutation in eight is cut short, as a crash
// would, after its WAL append or after its record install — which for a
// terminal transition is before the record's move to done/ — and the
// handle is dropped and reopened. After every reopen (and every fiftieth
// step) no job is lost or invented, each is in the state the model
// says, Get agrees with List, every record file sits in the one
// directory its state belongs in, and the live summary counts exactly
// the model's live jobs. Claim is checked on every call: it never hands
// out a job inside a lease or a terminal one.
func TestStoreModelWithCrashes(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(17))
	clock := time.UnixMilli(1_700_000_000_000)
	errCrash := errors.New("injected crash")
	var armed, fired, firedID string
	handles := make([]*Store, 2)
	reopen := func(h int) {
		t.Helper()
		if handles[h] != nil {
			handles[h].Close()
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		s.SetClock(func() time.Time { return clock })
		s.failpoint = func(point, id string) error {
			if point != armed {
				return nil
			}
			armed, fired, firedID = "", point, id
			return errCrash
		}
		handles[h] = s
	}
	reopen(0)
	reopen(1)
	defer func() {
		for _, s := range handles {
			s.Close()
		}
	}()

	model := storeModel{}
	tenants := []string{"alice", "bob", "carol"}
	owners := []string{"replica-a", "replica-b", "replica-c"}

	check := func(step int, s *Store) {
		t.Helper()
		recs, err := s.List()
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != len(model) {
			t.Fatalf("step %d: store lists %d jobs, model has %d", step, len(recs), len(model))
		}
		wantLive := Stats{ByState: map[State]int{}, ByTenant: map[string]int{}}
		for i, r := range recs {
			j, ok := model[r.ID]
			if !ok || !j.matches(r) {
				t.Fatalf("step %d: store has %+v, model %+v", step, r, j)
			}
			if i > 0 && recs[i-1].ID >= r.ID {
				t.Fatalf("step %d: listing out of order or duplicated at %s", step, r.ID)
			}
			got, err := s.Get(r.ID)
			if err != nil || !reflect.DeepEqual(got, r) {
				t.Fatalf("step %d: Get %+v (%v), List %+v", step, got, err, r)
			}
			home, other := liveDir, doneDir
			if r.State.Terminal() {
				home, other = doneDir, liveDir
			} else {
				wantLive.ByState[r.State]++
				wantLive.ByTenant[r.Tenant]++
				wantLive.Recovered += r.Recovered
			}
			if _, err := os.Stat(s.recordPath(home, r.ID)); err != nil {
				t.Fatalf("step %d: %s job %s not under %s/: %v", step, r.State, r.ID, home, err)
			}
			if _, err := os.Stat(s.recordPath(other, r.ID)); err == nil {
				t.Fatalf("step %d: %s job %s also under %s/", step, r.State, r.ID, other)
			}
		}
		live, err := s.LiveStats()
		if err != nil {
			t.Fatal(err)
		}
		wantLive.Served = live.Served
		if !reflect.DeepEqual(live, wantLive) {
			t.Fatalf("step %d: live summary %+v, model %+v", step, live, wantLive)
		}
	}

	for step := 0; step < 2500; step++ {
		h := rng.Intn(len(handles))
		s := handles[h]
		nowMS := clock.UnixMilli()
		armed, fired = "", ""
		if rng.Intn(8) == 0 {
			armed = []string{"logged", "installed"}[rng.Intn(2)]
		}
		id := "d-999999"
		if ids := model.ids(); len(ids) > 0 && rng.Intn(20) > 0 {
			id = ids[rng.Intn(len(ids))]
		}
		j := model[id]
		owner := owners[rng.Intn(len(owners))]
		if j != nil && j.owner != "" && rng.Intn(4) > 0 {
			owner = j.owner
		}
		lease := time.Duration(50+rng.Intn(400)) * time.Millisecond
		owned := j != nil && j.state == Running && j.owner == owner

		// settle maps an operation's error onto whether it took effect: a
		// crash after the WAL append leaves the old record, one after the
		// install leaves the new. wantErr is what the model expects of an
		// operation it says must be refused (nil: must be accepted).
		settle := func(op string, err, wantErr error) (applied bool) {
			t.Helper()
			switch {
			case wantErr != nil:
				if !errors.Is(err, wantErr) {
					t.Fatalf("step %d: %s(%s, %s) = %v, model expects %v (%+v)", step, op, id, owner, err, wantErr, j)
				}
				return false
			case errors.Is(err, errCrash):
				return fired == "installed"
			case err != nil:
				t.Fatalf("step %d: %s(%s, %s) = %v, model expects success (%+v)", step, op, id, owner, err, j)
			}
			return true
		}
		refusal := func() error {
			switch {
			case j == nil:
				return ErrNotFound
			case !owned:
				return ErrLeaseLost
			}
			return nil
		}

		var err error
		switch op := rng.Intn(10); op {
		case 0, 1: // Create
			tenant := tenants[rng.Intn(len(tenants))]
			var rec Record
			rec, err = s.Create(tenant, spec(step))
			if settle("Create", err, nil) {
				newID := rec.ID
				if err != nil {
					newID = firedID
				}
				if model[newID] != nil || newID == "" {
					t.Fatalf("step %d: Create reissued ID %q", step, newID)
				}
				model[newID] = &modelJob{tenant: tenant, state: Pending}
			}
		case 2, 3: // Claim
			orphan, heads := model.claimable(nowMS)
			var rec Record
			var recovered, ok bool
			rec, recovered, ok, err = s.Claim(owner, lease, nil)
			if err == nil && !ok {
				if orphan != "" || len(heads) > 0 {
					t.Fatalf("step %d: Claim found nothing, model has orphan %q, pending %v", step, orphan, heads)
				}
				break
			}
			claimed := rec.ID
			if err != nil {
				claimed = firedID
			}
			switch {
			case orphan != "":
				if claimed != orphan || (err == nil && !recovered) {
					t.Fatalf("step %d: Claim gave %s (recovered %v), oldest orphan is %s", step, claimed, recovered, orphan)
				}
			case !heads[claimed] || recovered:
				t.Fatalf("step %d: Claim gave %s (recovered %v, %+v), claimable are %v", step, claimed, recovered, model[claimed], heads)
			}
			if settle("Claim", err, nil) {
				c := model[claimed]
				c.state, c.owner, c.leaseMS = Running, owner, nowMS+lease.Milliseconds()
				c.attempts++
				if orphan != "" {
					c.recovered++
				}
			}
		case 4: // Renew
			var rec Record
			rec, err = s.Renew(id, owner, lease)
			if settle("Renew", err, refusal()) {
				j.leaseMS = nowMS + lease.Milliseconds()
				if err == nil && rec.CancelRequested != j.cancel {
					t.Fatalf("step %d: Renew shows cancel %v, model %v", step, rec.CancelRequested, j.cancel)
				}
			}
		case 5: // Release
			_, err = s.Release(id, owner)
			if settle("Release", err, refusal()) {
				j.state, j.owner, j.leaseMS = Pending, "", 0
			}
		case 6: // Finish
			state := []State{Done, Failed, Cancelled}[rng.Intn(3)]
			_, err = s.Finish(id, owner, state, json.RawMessage(`{"step":`+fmt.Sprint(step)+`}`), "")
			if settle("Finish", err, refusal()) {
				j.state, j.owner, j.leaseMS = state, "", 0
			}
		case 7: // RequestCancel
			var wantErr error
			switch {
			case j == nil:
				wantErr = ErrNotFound
			case j.state.Terminal():
				wantErr = ErrTerminal
			}
			_, err = s.RequestCancel(id)
			if settle("RequestCancel", err, wantErr) {
				if j.state == Pending {
					j.state = Cancelled
				} else {
					j.cancel = true
				}
			}
		case 8: // leases run out
			clock = clock.Add(time.Duration(rng.Intn(300)) * time.Millisecond)
		case 9: // the unsynced ID counter is lost or rewound
			seq := filepath.Join(dir, "seq")
			if rng.Intn(2) == 0 {
				os.Remove(seq)
			} else if werr := os.WriteFile(seq, []byte("1\n"), 0o644); werr != nil {
				t.Fatal(werr)
			}
		}
		if errors.Is(err, errCrash) {
			reopen(h)
			check(step, handles[h])
		} else if step%50 == 0 {
			check(step, s)
		}
	}
	check(-1, handles[0])
	terminal := 0
	for _, j := range model {
		if j.state.Terminal() {
			terminal++
		}
	}
	if len(model) < 200 || terminal < 100 {
		t.Fatalf("run too tame to mean anything: %d jobs, %d terminal", len(model), terminal)
	}
}

// finishedStore returns a store holding n finished jobs (with result
// payloads) and nothing live.
func finishedStore(t *testing.T, dir string, n int) *Store {
	t.Helper()
	s := open(t, dir)
	for i := 0; i < n; i++ {
		rec, err := s.Create("alice", spec(i))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, ok, err := s.Claim("r", time.Minute, nil); err != nil || !ok {
			t.Fatalf("claim %s: ok=%v err=%v", rec.ID, ok, err)
		}
		if _, err := s.Finish(rec.ID, "r", Done, json.RawMessage(`{"fasta":">design"}`), ""); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestClaimAndAdmissionReadOnlyLiveRecords is the count gate behind
// "the directory is the index": what one submit (admission snapshot +
// Create) and one claim read does not depend on how many finished jobs
// the store holds.
func TestClaimAndAdmissionReadOnlyLiveRecords(t *testing.T) {
	readsWith := func(finished int) int64 {
		s := finishedStore(t, t.TempDir(), finished)
		if _, err := s.Create("bob", spec(0)); err != nil { // one job already waiting
			t.Fatal(err)
		}
		before := s.RecordReads()
		if st, err := s.LiveStats(); err != nil || st.ByState[Pending] != 1 || st.ByTenant["bob"] != 1 {
			t.Fatalf("admission snapshot %+v, %v", st, err)
		}
		if _, err := s.Create("alice", spec(1)); err != nil {
			t.Fatal(err)
		}
		if _, _, ok, err := s.Claim("r", time.Minute, nil); err != nil || !ok {
			t.Fatalf("claim: ok=%v err=%v", ok, err)
		}
		reads := s.RecordReads() - before
		if all, err := s.List(); err != nil || len(all) != finished+2 {
			t.Fatalf("List sees %d jobs (%v), want %d", len(all), err, finished+2)
		}
		if st, err := s.Stats(); err != nil || st.ByState[Done] != finished {
			t.Fatalf("Stats counts %d done (%v), want %d", st.ByState[Done], err, finished)
		}
		return reads
	}
	few, many := readsWith(5), readsWith(500)
	if few != many || few != 3 { // snapshot: 1 live record; claim: 2
		t.Fatalf("one submit + one claim read %d records over 5 finished jobs, %d over 500; want 3 and 3", few, many)
	}
}

// TestOpenUpgradesParentLayout: a store written before the jobs/ +
// done/ split keeps every record, terminal ones included, in jobs/ and
// has no done/ at all. It must open, list identically, leave only live
// records in the scanned set, and claim correctly.
func TestOpenUpgradesParentLayout(t *testing.T) {
	dir := t.TempDir()
	s := finishedStore(t, dir, 4)
	if _, err := s.RequestCancel(mustCreate(t, s, "bob").ID); err != nil {
		t.Fatal(err)
	}
	running := mustCreate(t, s, "bob")
	if rec, _, ok, err := s.Claim("replica-a", time.Minute, nil); err != nil || !ok || rec.ID != running.ID {
		t.Fatalf("claim: %+v ok=%v err=%v", rec, ok, err)
	}
	pending := mustCreate(t, s, "bob")
	want, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Rewrite the directory into the old layout.
	entries, err := os.ReadDir(filepath.Join(dir, doneDir))
	if err != nil || len(entries) != 5 {
		t.Fatalf("done/ holds %d records (%v), want 5", len(entries), err)
	}
	for _, e := range entries {
		if err := os.Rename(filepath.Join(dir, doneDir, e.Name()), filepath.Join(dir, liveDir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Remove(filepath.Join(dir, doneDir)); err != nil {
		t.Fatal(err)
	}

	up := open(t, dir)
	left, err := os.ReadDir(filepath.Join(dir, liveDir))
	if err != nil || len(left) != 2 {
		t.Fatalf("after Open jobs/ holds %d records (%v), want the 2 live ones", len(left), err)
	}
	got, err := up.List()
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("upgraded store lists\n%+v (%v)\nwant\n%+v", got, err, want)
	}
	for _, r := range want {
		if one, err := up.Get(r.ID); err != nil || !reflect.DeepEqual(one, r) {
			t.Fatalf("Get(%s) = %+v, %v", r.ID, one, err)
		}
	}
	rec, recovered, ok, err := up.Claim("replica-b", time.Minute, nil)
	if err != nil || !ok || recovered || rec.ID != pending.ID {
		t.Fatalf("claim on the upgraded store: %+v recovered=%v ok=%v err=%v, want %s", rec, recovered, ok, err, pending.ID)
	}
	if _, _, ok, _ := up.Claim("replica-b", time.Minute, nil); ok {
		t.Fatal("second claim found work: only a leased job and finished ones remain")
	}
	if next := mustCreate(t, up, "carol"); next.ID != "d-000008" {
		t.Fatalf("Create after the upgrade issued %s, want d-000008", next.ID)
	}
}

func mustCreate(t *testing.T, s *Store, tenant string) Record {
	t.Helper()
	rec, err := s.Create(tenant, spec(0))
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestTerminalWinsOverStaleLiveCopy: a restore from a copy taken while
// a job finished can file the job both as running (jobs/) and as done
// (done/). The terminal record is the later one and wins everywhere: the
// job is served as done, listed once, never re-attached when the stale
// lease runs out, and the stale copy is gone after the first scan.
func TestTerminalWinsOverStaleLiveCopy(t *testing.T) {
	s := open(t, t.TempDir())
	clock := time.Now()
	s.SetClock(func() time.Time { return clock })
	rec := mustCreate(t, s, "alice")
	if _, _, ok, err := s.Claim("replica-a", time.Second, nil); err != nil || !ok {
		t.Fatalf("claim: ok=%v err=%v", ok, err)
	}
	stale, err := os.ReadFile(s.recordPath(liveDir, rec.ID))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Finish(rec.ID, "replica-a", Done, nil, ""); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.recordPath(liveDir, rec.ID), stale, 0o644); err != nil {
		t.Fatal(err)
	}
	clock = clock.Add(time.Minute) // the stale copy's lease is long gone

	if got, err := s.Get(rec.ID); err != nil || got.State != Done {
		t.Fatalf("Get = %+v, %v; want the done record", got, err)
	}
	if _, _, ok, err := s.Claim("replica-b", time.Second, nil); err != nil || ok {
		t.Fatalf("claim re-attached a finished job (ok=%v err=%v)", ok, err)
	}
	if all, err := s.List(); err != nil || len(all) != 1 || all[0].State != Done {
		t.Fatalf("List = %+v, %v; want the one done record", all, err)
	}
	if _, err := os.Stat(s.recordPath(liveDir, rec.ID)); err == nil {
		t.Fatal("stale live copy survived a scan")
	}
}
