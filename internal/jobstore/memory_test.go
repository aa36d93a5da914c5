package jobstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// errClass is what callers can tell apart about a store error.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrNotFound):
		return "not found"
	case errors.Is(err, ErrLeaseLost):
		return "lease lost"
	case errors.Is(err, ErrTerminal):
		return "terminal"
	}
	return "other: " + err.Error()
}

// TestMemoryStoreMatchesDirectoryStore drives the model test's random
// Create/Claim/Renew/Release/Finish/RequestCancel sequence (no crashes:
// a memory store has nothing to crash between) through OpenMemory() and
// Open(dir) side by side on one stepped clock, with weighted fair share
// and a bounded CreateIf in the mix. The two must be indistinguishable:
// every returned record, flag and error class, and every List, Stats
// and LiveStats.
func TestMemoryStoreMatchesDirectoryStore(t *testing.T) {
	clock := time.UnixMilli(1_700_000_000_000)
	now := func() time.Time { return clock }
	dir, mem := open(t, t.TempDir()), OpenMemory()
	dir.SetClock(now)
	mem.SetClock(now)
	if !dir.Durable() || mem.Durable() || mem.Dir() != "" || mem.Close() != nil {
		t.Fatalf("Durable/Dir/Close: dir %v, mem %v %q", dir.Durable(), mem.Durable(), mem.Dir())
	}

	rng := rand.New(rand.NewSource(23))
	tenants := []string{"alice", "bob", "carol"}
	owners := []string{"replica-a", "replica-b", "replica-c"}
	weights := map[string]float64{"alice": 3, "bob": 1, "carol": -1}
	errFull := errors.New("backlog full")
	bounded := func(live Stats) error {
		if live.ByState[Pending] >= 5 {
			return errFull
		}
		return nil
	}
	var ids []string
	same := func(step int, op string, d, m any, dErr, mErr error) {
		t.Helper()
		if !reflect.DeepEqual(d, m) || errClass(dErr) != errClass(mErr) {
			t.Fatalf("step %d: %s\n directory: %+v (%v)\n memory:    %+v (%v)", step, op, d, dErr, m, mErr)
		}
	}
	compare := func(step int) {
		t.Helper()
		dl, dErr := dir.List()
		ml, mErr := mem.List()
		same(step, "List", dl, ml, dErr, mErr)
		ds, dErr := dir.Stats()
		ms, mErr := mem.Stats()
		same(step, "Stats", ds, ms, dErr, mErr)
		ds, dErr = dir.LiveStats()
		ms, mErr = mem.LiveStats()
		same(step, "LiveStats", ds, ms, dErr, mErr)
	}

	for step := 0; step < 2500; step++ {
		id := "d-999999"
		if len(ids) > 0 && rng.Intn(20) > 0 {
			id = ids[rng.Intn(len(ids))]
		}
		owner := owners[rng.Intn(len(owners))]
		if rec, err := mem.Get(id); err == nil && rec.Owner != "" && rng.Intn(4) > 0 {
			owner = rec.Owner
		}
		lease := time.Duration(50+rng.Intn(400)) * time.Millisecond
		switch op := rng.Intn(10); op {
		case 0, 1:
			tenant := tenants[rng.Intn(len(tenants))]
			var admit func(Stats) error
			if op == 1 {
				admit = bounded
			}
			d, dErr := dir.CreateIf(tenant, spec(step), admit)
			m, mErr := mem.CreateIf(tenant, spec(step), admit)
			same(step, "CreateIf", d, m, dErr, mErr)
			if dErr == nil {
				ids = append(ids, d.ID)
			} else if !errors.Is(dErr, errFull) || !errors.Is(mErr, errFull) {
				t.Fatalf("step %d: CreateIf refused with %v / %v, want admit's own error", step, dErr, mErr)
			}
		case 2, 3:
			d, dRec, dOK, dErr := dir.Claim(owner, lease, weights)
			m, mRec, mOK, mErr := mem.Claim(owner, lease, weights)
			same(step, "Claim", []any{d, dRec, dOK}, []any{m, mRec, mOK}, dErr, mErr)
		case 4:
			d, dErr := dir.Renew(id, owner, lease)
			m, mErr := mem.Renew(id, owner, lease)
			same(step, "Renew", d, m, dErr, mErr)
		case 5:
			d, dErr := dir.Release(id, owner)
			m, mErr := mem.Release(id, owner)
			same(step, "Release", d, m, dErr, mErr)
		case 6:
			state := []State{Done, Failed, Cancelled}[rng.Intn(3)]
			result := json.RawMessage(`{"step":` + fmt.Sprint(step) + `}`)
			d, dErr := dir.Finish(id, owner, state, result, "note")
			m, mErr := mem.Finish(id, owner, state, result, "note")
			same(step, "Finish", d, m, dErr, mErr)
		case 7:
			d, dErr := dir.RequestCancel(id)
			m, mErr := mem.RequestCancel(id)
			same(step, "RequestCancel", d, m, dErr, mErr)
		case 8:
			clock = clock.Add(time.Duration(rng.Intn(300)) * time.Millisecond)
		case 9:
			d, dErr := dir.Get(id)
			m, mErr := mem.Get(id)
			same(step, "Get", d, m, dErr, mErr)
		}
		if step%25 == 0 {
			compare(step)
		}
	}
	compare(-1)
	st, _ := mem.Stats()
	terminal := st.ByState[Done] + st.ByState[Failed] + st.ByState[Cancelled]
	if len(ids) < 200 || terminal < 100 || st.Recovered == 0 {
		t.Fatalf("run too tame to mean anything: %d jobs, %d terminal, %d recoveries", len(ids), terminal, st.Recovered)
	}
}

// Eight claim loops on one memory store: a job is never held by two of
// them inside its lease, released jobs come round again, and every job
// ends up finished exactly once. Run under -race: the map holder has no
// flock behind it, only Store.mu.
func TestMemoryStoreClaimsAreExclusive(t *testing.T) {
	s := OpenMemory()
	const loops, jobs = 8, 300
	for i := 0; i < jobs; i++ {
		if _, err := s.Create([]string{"alice", "bob", "carol"}[i%3], spec(i)); err != nil {
			t.Fatal(err)
		}
	}
	var (
		mu       sync.Mutex
		held     = map[string]string{}
		finished atomic.Int64
		wg       sync.WaitGroup
	)
	for l := 0; l < loops; l++ {
		wg.Add(1)
		go func(owner string) {
			defer wg.Done()
			for n := 0; finished.Load() < jobs; n++ {
				rec, recovered, ok, err := s.Claim(owner, time.Hour, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if !ok {
					runtime.Gosched() // the rest are held by other loops
					continue
				}
				mu.Lock()
				if other, dup := held[rec.ID]; dup || recovered {
					t.Errorf("%s claimed %s (recovered %v) while %q holds it", owner, rec.ID, recovered, other)
				}
				held[rec.ID] = owner
				mu.Unlock()
				if _, err := s.Renew(rec.ID, owner, time.Hour); err != nil {
					t.Errorf("%s renewing %s: %v", owner, rec.ID, err)
				}
				mu.Lock()
				delete(held, rec.ID)
				mu.Unlock()
				if n%3 == 0 {
					_, err = s.Release(rec.ID, owner)
				} else {
					_, err = s.Finish(rec.ID, owner, Done, nil, "")
					finished.Add(1)
				}
				if err != nil {
					t.Errorf("%s letting go of %s: %v", owner, rec.ID, err)
				}
			}
		}(fmt.Sprintf("replica-%d", l))
	}
	wg.Wait()
	st, err := s.Stats()
	if err != nil || st.ByState[Done] != jobs || len(st.ByTenant) != 0 {
		t.Fatalf("after the run: %+v (%v), want %d done and nothing live", st, err, jobs)
	}
}
