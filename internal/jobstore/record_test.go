package jobstore

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// stat returns the file info of path, failing the test if it is gone.
func stat(t *testing.T, path string) os.FileInfo {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi
}

// TestJobPathReplacesNoFile: a served job's transitions neither replace
// nor truncate a file — each would free disk blocks, which on a
// filesystem that discards them costs tens of milliseconds under the
// store lock. One inode holds a job's record from Create to done/, and
// seq and shares.json keep theirs however often they are written.
func TestJobPathReplacesNoFile(t *testing.T) {
	s := open(t, t.TempDir())
	rec := mustCreate(t, s, "alice")
	path := s.recordPath(liveDir, rec.ID)
	record := stat(t, path)
	seq := stat(t, filepath.Join(s.dir, "seq"))
	same := func(step, path string, want os.FileInfo) {
		t.Helper()
		if got := stat(t, path); !os.SameFile(got, want) {
			t.Fatalf("after %s %s is a new file", step, path)
		}
	}
	if _, _, ok, err := s.Claim("r", time.Minute, nil); err != nil || !ok {
		t.Fatalf("claim: ok=%v err=%v", ok, err)
	}
	same("Claim", path, record)
	shares := stat(t, filepath.Join(s.dir, "shares.json"))
	if _, err := s.Renew(rec.ID, "r", time.Minute); err != nil {
		t.Fatal(err)
	}
	same("Renew", path, record)
	if _, err := s.RequestCancel(rec.ID); err != nil {
		t.Fatal(err)
	}
	same("RequestCancel", path, record)
	if _, err := s.Release(rec.ID, "r"); err != nil {
		t.Fatal(err)
	}
	same("Release", path, record)

	// A second tenant's job moves seq and both tenants' counters on.
	mustCreate(t, s, "bob")
	for i := 0; i < 2; i++ {
		if _, _, ok, err := s.Claim("r", time.Minute, nil); err != nil || !ok {
			t.Fatalf("claim %d: ok=%v err=%v", i, ok, err)
		}
	}
	if _, err := s.Finish(rec.ID, "r", Done, json.RawMessage(`{"ok":true}`), ""); err != nil {
		t.Fatal(err)
	}
	same("Finish", s.recordPath(doneDir, rec.ID), record)
	same("a second Create", filepath.Join(s.dir, "seq"), seq)
	same("three Claims", filepath.Join(s.dir, "shares.json"), shares)

	if got, err := s.Get(rec.ID); err != nil || got.State != Done || string(got.Result) != `{"ok":true}` || got.Attempts != 2 {
		t.Fatalf("Get = %+v, %v", got, err)
	}
	if next := mustCreate(t, s, "carol"); next.ID != "d-000003" {
		t.Fatalf("Create issued %s, want d-000003", next.ID)
	}
	if st, err := s.Stats(); err != nil || st.Served["alice"] != 2 || st.Served["bob"] != 1 {
		t.Fatalf("Stats served %v, %v; want alice 2, bob 1", st.Served, err)
	}
}

// TestTornAppendKeepsPreviousState: a crash mid-append leaves half a
// line at the end of a record file. It is skipped — the job reads as it
// was before the write — and the next write lands on a line of its own.
func TestTornAppendKeepsPreviousState(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	rec := mustCreate(t, s, "alice")
	claimed, _, ok, err := s.Claim("r", time.Minute, nil)
	if err != nil || !ok {
		t.Fatalf("claim: ok=%v err=%v", ok, err)
	}
	next := claimed
	next.State, next.Owner, next.LeaseExpiresMS = Done, "", 0
	line, err := json.Marshal(next)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(s.recordPath(liveDir, rec.ID), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(append([]byte{'\n'}, line[:len(line)/2]...)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	s.Close()

	re := open(t, dir)
	if got, err := re.Get(rec.ID); err != nil || !reflect.DeepEqual(got, claimed) {
		t.Fatalf("after a torn append Get = %+v, %v; want the claimed record %+v", got, err, claimed)
	}
	renewed, err := re.Renew(rec.ID, "r", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := re.Get(rec.ID); err != nil || !reflect.DeepEqual(got, renewed) || got.LeaseExpiresMS <= claimed.LeaseExpiresMS {
		t.Fatalf("after Renew Get = %+v, %v; want %+v", got, err, renewed)
	}
	if all, err := re.List(); err != nil || len(all) != 1 || !reflect.DeepEqual(all[0], renewed) {
		t.Fatalf("List = %+v, %v", all, err)
	}
}

// TestLongRenewedRecordIsRewritten: a record file that has grown past
// recordCompactThreshold is rewritten as one line by its next write, and
// reads its latest state throughout.
func TestLongRenewedRecordIsRewritten(t *testing.T) {
	old := recordCompactThreshold
	recordCompactThreshold = 2 << 10
	defer func() { recordCompactThreshold = old }()
	s := open(t, t.TempDir())
	clock := time.UnixMilli(1_700_000_000_000)
	s.SetClock(func() time.Time { return clock })
	rec := mustCreate(t, s, "alice")
	if _, _, ok, err := s.Claim("r", time.Minute, nil); err != nil || !ok {
		t.Fatalf("claim: ok=%v err=%v", ok, err)
	}
	path := s.recordPath(liveDir, rec.ID)
	var prev int64
	shrank := 0
	for i := 0; i < 60; i++ {
		clock = clock.Add(time.Second)
		renewed, err := s.Renew(rec.ID, "r", time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := s.Get(rec.ID); err != nil || !reflect.DeepEqual(got, renewed) {
			t.Fatalf("renew %d: Get = %+v, %v; want %+v", i, got, err, renewed)
		}
		size := stat(t, path).Size()
		if size > recordCompactThreshold+1<<10 {
			t.Fatalf("renew %d: record file is %d bytes, bound %d", i, size, recordCompactThreshold)
		}
		if size < prev {
			shrank++
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Count(data, []byte{'\n'}) != 0 {
				t.Fatalf("renew %d: rewritten record has %d lines, want 1", i, bytes.Count(data, []byte{'\n'})+1)
			}
		}
		prev = size
	}
	if shrank == 0 {
		t.Fatal("the record file never shrank past its bound")
	}
}

// FuzzRecordFile: arbitrary bytes as a live record file never panic a
// Get, a scan or a claim, and a record line appended after them is the
// record Get returns.
func FuzzRecordFile(f *testing.F) {
	valid, err := json.Marshal(Record{ID: "d-000002", Tenant: "alice", Spec: spec(2), State: Running, Owner: "r", LeaseExpiresMS: 9, Attempts: 1, CreatedMS: 7})
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add([]byte("{not json"))
	f.Add([]byte("\n\n \n"))
	f.Add([]byte(`{"id":"d-000001","tenant":"bob","spec":{},"state":"pending","created_ms":1}`))
	f.Add([]byte(`{"id":"d-000001","tenant":"bob","spec":{},"state":"done","created_ms":1}` + "\n" + `{"id":"d-000001","st`))
	f.Add([]byte("null\n{}\n[]\n5"))
	f.Add(valid)
	f.Fuzz(func(t *testing.T, data []byte) {
		s := open(t, t.TempDir())
		if err := os.WriteFile(s.recordPath(liveDir, "d-000001"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if rec, err := s.Get("d-000001"); err == nil && rec.ID != "d-000001" {
			t.Fatalf("Get(d-000001) returned %+v", rec)
		}
		if err := os.WriteFile(s.recordPath(liveDir, "d-000002"), bytes.Join([][]byte{data, valid}, []byte{'\n'}), 0o644); err != nil {
			t.Fatal(err)
		}
		var want Record
		if err := json.Unmarshal(valid, &want); err != nil {
			t.Fatal(err)
		}
		if got, err := s.Get("d-000002"); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("Get after a valid line = %+v, %v; want %+v", got, err, want)
		}
		all, err := s.List()
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range all {
			if rec.ID != "d-000001" && rec.ID != "d-000002" {
				t.Fatalf("List invented %+v", rec)
			}
		}
		if _, _, _, err := s.Claim("r", time.Minute, nil); err != nil {
			t.Fatal(err)
		}
	})
}
