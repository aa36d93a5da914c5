// Package jobstore is insipsd's design-job store: the one queue every
// replica submits to and claims from. Opened on a shared directory
// (Open) it keeps each job as a durable record, so N stateless insipsd
// replicas pull from one queue and a crashed replica's jobs are
// re-attached elsewhere (the facilitator/coordinator split of the
// adaptive-middleware literature, one level above netcluster's task
// leases). Opened in memory (OpenMemory) it runs the same transitions
// over a map, for a single process whose jobs need not outlive it; see
// memory.go for the seam between the two.
//
// Ownership is lease-based, the same pattern netcluster applies to
// individual evaluation tasks, lifted to whole jobs: a replica Claims a
// pending job for a bounded lease, Renews it while the job runs, and a
// job whose lease expires without renewal (a kill -9, an OOM, a
// partition) becomes claimable again — the next Claim re-attaches it,
// and the runner resumes from the job's run-journal checkpoint
// (core.Designer.Resume), bit-identical to an uninterrupted run.
//
// Admission across tenants is weighted fair-share: Claim picks the
// eligible tenant with the smallest served/weight ratio (stride
// scheduling over a persistent per-tenant service counter), so a heavy
// tenant flooding the queue cannot starve a light one. Orphaned
// (lease-expired) jobs are recovered before any new work is started —
// work conservation beats fairness for work already paid for.
//
// On-disk layout of a directory store (everything stdlib, no external
// database):
//
//	<dir>/jobs/<id>.json  one Record per live (pending or running) job,
//	                      one JSON line per transition, last line wins
//	<dir>/done/<id>.json  one Record per terminal job, never rewritten
//	<dir>/wal.jsonl       append-only transition log (audit + forensics)
//	<dir>/shares.json     per-tenant service counters for fair-share
//	<dir>/seq             monotonic ID counter
//	<dir>/.lock           cross-process flock serializing every mutation
//
// Every mutation runs under an exclusive flock(2) of <dir>/.lock, so
// any number of replica processes (and goroutines within them) see
// serialized read-modify-write transitions. A record file is JSON lines,
// and its last line that decodes to the job's record is the record.
// Create writes the file by temp+fsync+rename onto a new name; every
// later transition appends one line, led by a newline, and fsyncs. A
// crash mid-append leaves a torn last line, which readers skip, so the
// record reads as it was before — never corrupt. A file that outgrows
// recordCompactThreshold is rewritten as one line by its next write.
// seq and shares.json are overwritten in place. None of these frees
// the disk blocks of an old file, which a rename over it, a truncate or
// an unlink would, and which on a filesystem that discards freed blocks
// costs tens of milliseconds under the store lock. The WAL line is
// appended before the record line, so the log names every transition
// that may have happened.
//
// The directory is the index: jobs/ holds exactly the records a claim
// or an admission decision can depend on, so Claim, LiveStats and WAL
// compaction scan it alone and cost O(live jobs) however many finished
// jobs the store has served. A transition to a terminal state appends
// to the record in jobs/ like any other and then renames it into done/.
// A rename is atomic, so a record is never in both directories; a crash
// between the two steps leaves a terminal record in jobs/, which is
// also what a store written before the split looks like. Whichever
// scan meets such a record first (Open makes one) completes the move.
// Get, List and Stats read both directories, done/ first, so a terminal
// record wins over anything else filed under its ID. All replicas of a
// deployment must run the same layout: a build that reads a record file
// as one JSON document cannot read a record of more than one line.
package jobstore

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// State is the lifecycle state of a stored job.
type State string

const (
	// Pending jobs are accepted and waiting for a replica to claim them.
	Pending State = "pending"
	// Running jobs are owned by a replica under an active lease.
	Running State = "running"
	// Done, Failed and Cancelled are terminal.
	Done      State = "done"
	Failed    State = "failed"
	Cancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s == Done || s == Failed || s == Cancelled }

// Record is one durable job. Spec is the tenant's validated submission
// (the service stores the raw DesignRequest JSON and re-resolves it on
// claim, so the store needs no knowledge of GA parameters); Result is
// whatever the runner wants future readers to see (the service stores
// the rendered job JSON).
type Record struct {
	ID     string          `json:"id"`
	Tenant string          `json:"tenant"`
	Spec   json.RawMessage `json:"spec"`
	State  State           `json:"state"`

	// Owner is the replica holding the lease while Running.
	Owner string `json:"owner,omitempty"`
	// LeaseExpiresMS is the Unix-millisecond deadline after which a
	// Running job is orphaned and claimable by any replica.
	LeaseExpiresMS int64 `json:"lease_expires_ms,omitempty"`
	// Attempts counts claims (1 on first claim; >1 means the job was
	// recovered or released at least once).
	Attempts int `json:"attempts,omitempty"`
	// Recovered counts lease-expiry re-attachments specifically.
	Recovered int `json:"recovered,omitempty"`
	// CancelRequested asks the owning replica to stop; it is observed at
	// the next Renew and the owner finishes the job as Cancelled.
	CancelRequested bool `json:"cancel_requested,omitempty"`

	CreatedMS  int64 `json:"created_ms"`
	StartedMS  int64 `json:"started_ms,omitempty"`
	FinishedMS int64 `json:"finished_ms,omitempty"`

	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

// walEvent is one line of wal.jsonl.
type walEvent struct {
	TimeMS int64  `json:"t_ms"`
	Event  string `json:"event"`
	ID     string `json:"id"`
	Tenant string `json:"tenant,omitempty"`
	Owner  string `json:"owner,omitempty"`
	From   State  `json:"from,omitempty"`
	To     State  `json:"to,omitempty"`
	Note   string `json:"note,omitempty"`
}

// Sentinel errors. ErrLeaseLost is the one runners must handle: it
// means another replica owns (or finished) the job, so the local run
// must stop and discard its result.
var (
	ErrNotFound  = errors.New("jobstore: no such job")
	ErrLeaseLost = errors.New("jobstore: lease lost (job owned by another replica or finished)")
	ErrTerminal  = errors.New("jobstore: job already in a terminal state")
)

// Store is a handle on one store: a directory shared with other
// handles, or a map of its own. Handles are cheap; every replica process
// opens its own. Safe for concurrent use.
type Store struct {
	// dirStore holds the records of an Open store and is nil after
	// OpenMemory; b is whichever holder the transitions below run over.
	*dirStore
	b backing

	// mu serializes goroutines within this process; a directory store's
	// flock on .lock, processes. Both are held for every mutation.
	mu sync.Mutex
	handle
}

// handle is what a Store shares with its directory holder.
type handle struct {
	// now is a test seam for lease-expiry logic.
	now func() time.Time

	scans atomic.Int64
	reads atomic.Int64
}

// dirStore is the directory holder: record files, the flock, the WAL.
type dirStore struct {
	*handle
	dir   string
	lockf *os.File

	// failpoint, when set, is called between the durable steps of a
	// mutation of job id — "logged" after the WAL append, "installed"
	// after the record write (before a terminal record's move to done/);
	// an error aborts the mutation there, as a crash would (tests).
	failpoint func(point, id string) error
}

// Record directories: liveDir is the scanned set.
const (
	liveDir = "jobs"
	doneDir = "done"
)

// walCompactThreshold is the wal.jsonl size, in bytes, past which Open
// compacts it down to live-job transitions. Package variable as a test
// seam; the default keeps years of routine transitions while bounding a
// long-lived deployment's unbounded append growth.
var walCompactThreshold int64 = 1 << 20

// Open creates (MkdirAll) and opens a store directory. Under the store
// lock it scans the live set once — which moves any terminal record
// still in jobs/ (a store written before the jobs/ + done/ split, or a
// crash between a terminal install and its move) into done/ — and, when
// the transition log has outgrown walCompactThreshold, compacts it:
// terminal jobs' transitions are dropped (their record files remain the
// durable truth), live jobs' history is kept.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("jobstore: empty store directory")
	}
	for _, sub := range []string{liveDir, doneDir} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("jobstore: creating store: %w", err)
		}
	}
	lockf, err := os.OpenFile(filepath.Join(dir, ".lock"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("jobstore: opening lock file: %w", err)
	}
	s := &Store{handle: handle{now: time.Now}}
	s.dirStore = &dirStore{handle: &s.handle, dir: dir, lockf: lockf}
	s.b = s.dirStore
	if err := s.settle(); err != nil {
		lockf.Close()
		return nil, err
	}
	return s, nil
}

// settle is Open's pass over the store under the full store lock, so
// concurrent replicas never see a half-rewritten log.
func (s *Store) settle() error {
	if err := s.lock(); err != nil {
		return err
	}
	defer s.unlock()
	live, err := s.b.liveLocked()
	if err != nil {
		return err
	}
	return s.maybeCompactWAL(live)
}

// maybeCompactWAL rewrites wal.jsonl keeping only transitions of the
// live jobs, when the log exceeds walCompactThreshold; the swap is
// temp+fsync+rename like a record's rewrite. A final "compact" event
// records the rewrite itself in the new log. Caller holds the lock.
func (s *dirStore) maybeCompactWAL(liveRecs []Record) error {
	walPath := filepath.Join(s.dir, "wal.jsonl")
	fi, err := os.Stat(walPath)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("jobstore: stat wal: %w", err)
	}
	if fi.Size() <= walCompactThreshold {
		return nil
	}
	live := make(map[string]bool, len(liveRecs))
	for _, rec := range liveRecs {
		live[rec.ID] = true
	}
	data, err := os.ReadFile(walPath)
	if err != nil {
		return fmt.Errorf("jobstore: reading wal: %w", err)
	}
	tmp, err := os.CreateTemp(s.dir, "wal.tmp*")
	if err != nil {
		return fmt.Errorf("jobstore: temp wal: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after rename
	kept, dropped := 0, 0
	for _, line := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var ev walEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			// Torn tail (crash mid-append): everything after is gone anyway.
			break
		}
		if !live[ev.ID] {
			dropped++
			continue
		}
		if _, err := fmt.Fprintf(tmp, "%s\n", line); err != nil {
			tmp.Close()
			return fmt.Errorf("jobstore: writing compacted wal: %w", err)
		}
		kept++
	}
	note, err := json.Marshal(walEvent{
		TimeMS: s.now().UnixMilli(),
		Event:  "compact",
		Note:   fmt.Sprintf("kept %d, dropped %d transitions", kept, dropped),
	})
	if err == nil {
		fmt.Fprintf(tmp, "%s\n", note)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("jobstore: syncing compacted wal: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("jobstore: closing compacted wal: %w", err)
	}
	if err := os.Rename(tmp.Name(), walPath); err != nil {
		return fmt.Errorf("jobstore: installing compacted wal: %w", err)
	}
	return nil
}

// Durable reports whether the records live in a directory — outlive
// this process and can be claimed by other handles — or in memory.
func (s *Store) Durable() bool { return s.dirStore != nil }

// Dir returns the store directory ("" for a memory store).
func (s *Store) Dir() string {
	if !s.Durable() {
		return ""
	}
	return s.dir
}

// Close releases the store handle. Open records are unaffected.
func (s *Store) Close() error {
	if !s.Durable() {
		return nil
	}
	return s.lockf.Close()
}

// SetClock overrides the store's time source (tests).
func (s *Store) SetClock(now func() time.Time) { s.now = now }

// lock takes the in-process mutex and, on a directory store, the
// cross-process flock.
func (s *Store) lock() error {
	s.mu.Lock()
	if err := s.b.lockPeers(); err != nil {
		s.mu.Unlock()
		return fmt.Errorf("jobstore: flock: %w", err)
	}
	return nil
}

func (s *Store) unlock() {
	s.b.unlockPeers()
	s.mu.Unlock()
}

func (s *dirStore) lockPeers() error { return flockEx(s.lockf) }
func (s *dirStore) unlockPeers()     { _ = funlock(s.lockf) }

func (s *dirStore) recordPath(sub, id string) string {
	return filepath.Join(s.dir, sub, id+".json")
}

// crash is the failpoint seam: nil outside tests.
func (s *dirStore) crash(point, id string) error {
	if s.failpoint == nil {
		return nil
	}
	return s.failpoint(point, id)
}

// readFile loads one record file from one directory: the last of its
// lines that decodes to this job's record. Blank lines and any other
// line — a torn append, garbage — are skipped, so a crash mid-append
// leaves the state before it. Caller holds the lock.
func (s *dirStore) readFile(sub, id string) (Record, error) {
	data, err := os.ReadFile(s.recordPath(sub, id))
	if errors.Is(err, fs.ErrNotExist) {
		return Record{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if err != nil {
		return Record{}, fmt.Errorf("jobstore: reading %s: %w", id, err)
	}
	s.reads.Add(1)
	for len(data) > 0 {
		i := bytes.LastIndexByte(data, '\n')
		line := data[i+1:]
		data = data[:max(i, 0)]
		var rec Record
		if json.Unmarshal(line, &rec) == nil && rec.ID == id {
			return rec, nil
		}
	}
	return Record{}, fmt.Errorf("jobstore: decoding %s: no record line", id)
}

// readRecord loads one job's record, terminal or live; done/ is asked
// first, so a terminal record wins. Caller holds the lock.
func (s *dirStore) readRecord(id string) (Record, error) {
	rec, err := s.readFile(doneDir, id)
	if errors.Is(err, ErrNotFound) {
		return s.readFile(liveDir, id)
	}
	return rec, err
}

// writeRecord installs one record in jobs/ and, when the record is
// terminal, moves it into done/ — the one step that takes a job out of
// the scanned set. A new record, or one whose file has outgrown
// recordCompactThreshold, is written whole; any other write is appended
// (see the package comment for why). Caller holds the lock.
func (s *dirStore) writeRecord(rec Record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("jobstore: encoding %s: %w", rec.ID, err)
	}
	path := s.recordPath(liveDir, rec.ID)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		err = s.replaceRecord(path, rec.ID, data)
	case err != nil:
		return fmt.Errorf("jobstore: opening record: %w", err)
	default:
		err = s.appendRecord(f, path, rec.ID, data)
	}
	if err != nil {
		return err
	}
	if err := s.crash("installed", rec.ID); err != nil {
		return err
	}
	if rec.State.Terminal() {
		return s.retire(rec.ID)
	}
	return nil
}

// recordCompactThreshold is the live record file size, in bytes, past
// which the next write rewrites the file as one line, so a long-renewed
// job stays cheap to read. Package variable as a test seam.
var recordCompactThreshold int64 = 64 << 10

// appendRecord appends data to the open record file f as a line of its
// own: the leading newline keeps it off a torn tail. A failed write is
// cut off again, so an error leaves the record as it was. It closes f.
func (s *dirStore) appendRecord(f *os.File, path, id string, data []byte) error {
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("jobstore: stat record: %w", err)
	}
	if fi.Size() >= recordCompactThreshold {
		f.Close()
		return s.replaceRecord(path, id, data)
	}
	if _, err = f.Write(append([]byte{'\n'}, data...)); err != nil {
		err = fmt.Errorf("jobstore: appending record: %w", err)
	} else if err = f.Sync(); err != nil {
		err = fmt.Errorf("jobstore: syncing record: %w", err)
	}
	if err != nil {
		_ = f.Truncate(fi.Size()) // best effort: readers skip a line cut short anyway
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("jobstore: closing record: %w", err)
	}
	return nil
}

// replaceRecord writes data as the whole record file at path by temp +
// fsync + rename, so a crash leaves the old file or the new one.
func (s *dirStore) replaceRecord(path, id string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Join(s.dir, liveDir), id+".tmp*")
	if err != nil {
		return fmt.Errorf("jobstore: temp record: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("jobstore: writing record: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("jobstore: syncing record: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("jobstore: closing record: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("jobstore: installing record: %w", err)
	}
	return nil
}

// hasRecord reports whether a record file for id exists in one
// directory. Caller holds the lock.
func (s *dirStore) hasRecord(sub, id string) (bool, error) {
	_, err := os.Stat(s.recordPath(sub, id))
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("jobstore: probing %s: %w", id, err)
	}
	return true, nil
}

// retire moves a terminal record from jobs/ into done/. Caller holds
// the lock.
func (s *dirStore) retire(id string) error {
	if err := os.Rename(s.recordPath(liveDir, id), s.recordPath(doneDir, id)); err != nil {
		return fmt.Errorf("jobstore: retiring %s: %w", id, err)
	}
	return nil
}

// appendWAL logs one transition. Append-before-write: a WAL line with no
// matching record state means the crash hit between the two writes, and
// the record (old state) wins. Caller holds the lock.
func (s *dirStore) appendWAL(ev walEvent) error {
	ev.TimeMS = s.now().UnixMilli()
	line, err := json.Marshal(ev)
	if err != nil {
		return fmt.Errorf("jobstore: encoding wal event: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(s.dir, "wal.jsonl"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("jobstore: opening wal: %w", err)
	}
	defer f.Close()
	if _, err := f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("jobstore: appending wal: %w", err)
	}
	return s.crash("logged", ev.ID)
}

// nextID allocates the next monotonic job ID (d-000001, ...). IDs are
// global across replicas: the counter lives in the store. The counter
// file is written without an fsync, so a crash can rewind it (and an
// operator can remove it); IDs whose record already exists — live in
// jobs/ or terminal in done/ — are skipped, so no job's ID is ever
// reissued and its record overwritten. Caller holds the lock.
func (s *dirStore) nextID() (string, error) {
	path := filepath.Join(s.dir, "seq")
	n := 0
	if data, err := os.ReadFile(path); err == nil {
		fmt.Sscanf(strings.TrimSpace(string(data)), "%d", &n)
	} else if !errors.Is(err, fs.ErrNotExist) {
		return "", fmt.Errorf("jobstore: reading seq: %w", err)
	}
	var id string
	for taken := true; taken; {
		n++
		id = fmt.Sprintf("d-%06d", n)
		var err error
		if taken, err = s.hasRecord(liveDir, id); err == nil && !taken {
			taken, err = s.hasRecord(doneDir, id)
		}
		if err != nil {
			return "", err
		}
	}
	if err := overwrite(path, []byte(fmt.Sprintf("%d\n", n))); err != nil {
		return "", fmt.Errorf("jobstore: writing seq: %w", err)
	}
	return id, nil
}

// Create registers a new pending job for a tenant and returns its
// record with the store-assigned ID.
func (s *Store) Create(tenant string, spec json.RawMessage) (Record, error) {
	return s.CreateIf(tenant, spec, nil)
}

// CreateIf is Create behind an admission decision in the same store
// transaction: admit (nil admits) sees the live summary under the lock
// that creates the record, so of any concurrent submits, on this handle
// or a peer's, exactly as many pass a bound as it allows. admit's error
// is returned as is. It must be quick and must not call the store.
func (s *Store) CreateIf(tenant string, spec json.RawMessage, admit func(live Stats) error) (Record, error) {
	if err := s.lock(); err != nil {
		return Record{}, err
	}
	defer s.unlock()
	if admit != nil {
		live, err := s.b.liveLocked()
		if err != nil {
			return Record{}, err
		}
		if err := admit(s.summarize(live)); err != nil {
			return Record{}, err
		}
	}
	id, err := s.b.nextID()
	if err != nil {
		return Record{}, err
	}
	rec := Record{
		ID:        id,
		Tenant:    tenant,
		Spec:      spec,
		State:     Pending,
		CreatedMS: s.now().UnixMilli(),
	}
	if err := s.b.appendWAL(walEvent{Event: "create", ID: id, Tenant: tenant, To: Pending}); err != nil {
		return Record{}, err
	}
	if err := s.b.writeRecord(rec); err != nil {
		return Record{}, err
	}
	return rec, nil
}

// Get returns one record.
func (s *Store) Get(id string) (Record, error) {
	if err := s.lock(); err != nil {
		return Record{}, err
	}
	defer s.unlock()
	return s.b.readRecord(id)
}

// List returns every record, live and terminal, ordered by ID
// (= submission order).
func (s *Store) List() ([]Record, error) {
	if err := s.lock(); err != nil {
		return nil, err
	}
	defer s.unlock()
	return s.b.listLocked()
}

// Scans returns how many directory scans this handle has made: Claim
// and LiveStats each scan the live set once, List and Stats the live
// set and the terminal records. Open makes one too. A memory store has
// no directory to scan or files to read, and counts neither.
func (s *Store) Scans() int64 { return s.scans.Load() }

// RecordReads returns how many record files this handle has read and
// decoded, by scans and by single-record operations alike — the store's
// unit of work under the lock.
func (s *Store) RecordReads() int64 { return s.reads.Load() }

// scanDir reads every record file in one directory, ordered by ID. A
// torn temp file, a corrupt record or a concurrent delete is skipped,
// not fatal: the WAL still names the job.
func (s *dirStore) scanDir(sub string) ([]Record, error) {
	entries, err := os.ReadDir(filepath.Join(s.dir, sub))
	if err != nil {
		return nil, fmt.Errorf("jobstore: scanning %s: %w", sub, err)
	}
	var out []Record
	for _, e := range entries {
		id, ok := strings.CutSuffix(e.Name(), ".json")
		if !ok {
			continue
		}
		if rec, err := s.readFile(sub, id); err == nil {
			out = append(out, rec)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// liveLocked scans jobs/ and returns the live records. A terminal
// record found there is one whose move into done/ never happened (see
// the package comment); the scan completes it, so it is read here at
// most once. A live record whose ID also has a record in done/ is stale
// — the store's own writes never produce the pair, a restore from a
// copy taken while the job finished can — and is removed: terminal wins
// here as it does in Get.
func (s *dirStore) liveLocked() ([]Record, error) {
	s.scans.Add(1)
	recs, err := s.scanDir(liveDir)
	if err != nil {
		return nil, err
	}
	live := recs[:0]
	for _, rec := range recs {
		if rec.State.Terminal() {
			if err := s.retire(rec.ID); err != nil {
				return nil, err
			}
			continue
		}
		finished, err := s.hasRecord(doneDir, rec.ID)
		if err != nil {
			return nil, err
		}
		if !finished {
			live = append(live, rec)
		} else if err := os.Remove(s.recordPath(liveDir, rec.ID)); err != nil {
			return nil, fmt.Errorf("jobstore: dropping stale %s: %w", rec.ID, err)
		}
	}
	return live, nil
}

// listLocked returns every record. The live scan runs first, so a
// record it retires is then found in done/.
func (s *dirStore) listLocked() ([]Record, error) {
	live, err := s.liveLocked()
	if err != nil {
		return nil, err
	}
	done, err := s.scanDir(doneDir)
	if err != nil {
		return nil, err
	}
	out := append(done, live...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// shares is the persistent per-tenant service accounting behind
// weighted fair-share claims.
type shares struct {
	Served map[string]float64 `json:"served"`
}

func (s *dirStore) readShares() shares {
	var sh shares
	data, err := os.ReadFile(filepath.Join(s.dir, "shares.json"))
	if err == nil {
		_ = json.Unmarshal(data, &sh)
	}
	if sh.Served == nil {
		sh.Served = make(map[string]float64)
	}
	return sh
}

func (s *dirStore) writeShares(sh shares) error {
	data, err := json.Marshal(sh)
	if err != nil {
		return err
	}
	if err := overwrite(filepath.Join(s.dir, "shares.json"), data); err != nil {
		return fmt.Errorf("jobstore: writing shares: %w", err)
	}
	return nil
}

// overwrite writes data over the start of the file at path, creating it
// if need be, and pads what is left of longer old content with spaces
// (json.Unmarshal and a trimmed Sscanf read past them). It neither
// truncates nor replaces the file, so it frees no disk blocks, and it
// does not fsync: nextID skips past a lost or rewound seq, and a lost
// shares.json only restarts fair share from zero.
func overwrite(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	fi, err := f.Stat()
	if err == nil {
		if pad := fi.Size() - int64(len(data)); pad > 0 {
			data = append(data, bytes.Repeat([]byte{' '}, int(pad))...)
		}
		_, err = f.Write(data)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Claim hands the calling replica the next job to run, under a lease:
//
//  1. Orphaned jobs first — Running records whose lease expired are
//     recovered in FIFO order regardless of tenant (finish work already
//     started before admitting new work).
//  2. Otherwise the Pending job of the fair-share winner: among tenants
//     with pending work, the one with the smallest served/weight ratio
//     (ties: smaller served, then tenant name), FIFO within the tenant.
//     Tenants missing from weights get weight 1; weights <= 0 are
//     treated as 1.
//
// The claimed record is marked Running with owner and lease deadline,
// and the tenant's service counter is charged. recovered reports
// whether the job is a lease-expiry re-attachment (the runner should
// resume from its journal checkpoint rather than start fresh). ok is
// false when there is nothing to claim.
func (s *Store) Claim(owner string, lease time.Duration, weights map[string]float64) (rec Record, recovered, ok bool, err error) {
	if err := s.lock(); err != nil {
		return Record{}, false, false, err
	}
	defer s.unlock()
	recs, err := s.b.liveLocked()
	if err != nil {
		return Record{}, false, false, err
	}
	nowMS := s.now().UnixMilli()

	var pick *Record
	for i := range recs {
		r := &recs[i]
		if r.State == Running && r.LeaseExpiresMS > 0 && r.LeaseExpiresMS < nowMS {
			pick, recovered = r, true
			break // FIFO by ID: recs is sorted
		}
	}
	sh := s.b.readShares()
	if pick == nil {
		// Fair-share pick over tenants with pending work.
		byTenant := make(map[string]*Record)
		for i := range recs {
			r := &recs[i]
			if r.State != Pending {
				continue
			}
			if _, seen := byTenant[r.Tenant]; !seen {
				byTenant[r.Tenant] = r // FIFO within tenant
			}
		}
		if len(byTenant) == 0 {
			return Record{}, false, false, nil
		}
		tenants := make([]string, 0, len(byTenant))
		for t := range byTenant {
			tenants = append(tenants, t)
		}
		sort.Strings(tenants)
		best := tenants[0]
		bestRatio := fairRatio(sh.Served[best], weights[best])
		for _, t := range tenants[1:] {
			ratio := fairRatio(sh.Served[t], weights[t])
			switch {
			case ratio < bestRatio:
				best, bestRatio = t, ratio
			case ratio == bestRatio && sh.Served[t] < sh.Served[best]:
				best = t
			}
		}
		pick = byTenant[best]
	}

	from := pick.State
	pick.State = Running
	pick.Owner = owner
	pick.LeaseExpiresMS = s.now().Add(lease).UnixMilli()
	pick.Attempts++
	if recovered {
		pick.Recovered++
	}
	if pick.StartedMS == 0 {
		pick.StartedMS = nowMS
	}
	sh.Served[pick.Tenant]++
	event := "claim"
	if recovered {
		event = "recover"
	}
	if err := s.b.appendWAL(walEvent{Event: event, ID: pick.ID, Tenant: pick.Tenant, Owner: owner, From: from, To: Running}); err != nil {
		return Record{}, false, false, err
	}
	if err := s.b.writeShares(sh); err != nil {
		return Record{}, false, false, err
	}
	if err := s.b.writeRecord(*pick); err != nil {
		return Record{}, false, false, err
	}
	return *pick, recovered, true, nil
}

// fairRatio is served/weight with weight defaulting to 1.
func fairRatio(served, weight float64) float64 {
	if weight <= 0 {
		weight = 1
	}
	return served / weight
}

// Renew extends the caller's lease and returns the fresh record (so the
// runner observes CancelRequested). ErrLeaseLost if the job is no
// longer owned by the caller — the local run must stop and its result
// must be discarded.
func (s *Store) Renew(id, owner string, lease time.Duration) (Record, error) {
	if err := s.lock(); err != nil {
		return Record{}, err
	}
	defer s.unlock()
	rec, err := s.b.readRecord(id)
	if err != nil {
		return Record{}, err
	}
	if rec.State != Running || rec.Owner != owner {
		return rec, fmt.Errorf("%w: %s (state %s, owner %q)", ErrLeaseLost, id, rec.State, rec.Owner)
	}
	rec.LeaseExpiresMS = s.now().Add(lease).UnixMilli()
	if err := s.b.writeRecord(rec); err != nil {
		return Record{}, err
	}
	return rec, nil
}

// Finish moves the caller's job to a terminal state with an optional
// result payload. ErrLeaseLost if the caller no longer owns the job
// (its result must be discarded: another replica owns the truth now).
func (s *Store) Finish(id, owner string, state State, result json.RawMessage, errMsg string) (Record, error) {
	if !state.Terminal() {
		return Record{}, fmt.Errorf("jobstore: Finish with non-terminal state %q", state)
	}
	if err := s.lock(); err != nil {
		return Record{}, err
	}
	defer s.unlock()
	rec, err := s.b.readRecord(id)
	if err != nil {
		return Record{}, err
	}
	if rec.State != Running || rec.Owner != owner {
		return rec, fmt.Errorf("%w: %s (state %s, owner %q)", ErrLeaseLost, id, rec.State, rec.Owner)
	}
	from := rec.State
	rec.State = state
	rec.Owner = ""
	rec.LeaseExpiresMS = 0
	rec.FinishedMS = s.now().UnixMilli()
	rec.Result = result
	rec.Error = errMsg
	if err := s.b.appendWAL(walEvent{Event: "finish", ID: id, Tenant: rec.Tenant, Owner: owner, From: from, To: state, Note: errMsg}); err != nil {
		return Record{}, err
	}
	if err := s.b.writeRecord(rec); err != nil {
		return Record{}, err
	}
	return rec, nil
}

// Release hands the caller's running job back to the queue (graceful
// drain: the replica checkpoints the run, releases the job, and another
// replica resumes it). The job returns to Pending with no owner.
func (s *Store) Release(id, owner string) (Record, error) {
	if err := s.lock(); err != nil {
		return Record{}, err
	}
	defer s.unlock()
	rec, err := s.b.readRecord(id)
	if err != nil {
		return Record{}, err
	}
	if rec.State != Running || rec.Owner != owner {
		return rec, fmt.Errorf("%w: %s (state %s, owner %q)", ErrLeaseLost, id, rec.State, rec.Owner)
	}
	rec.State = Pending
	rec.Owner = ""
	rec.LeaseExpiresMS = 0
	if err := s.b.appendWAL(walEvent{Event: "release", ID: id, Tenant: rec.Tenant, Owner: owner, From: Running, To: Pending}); err != nil {
		return Record{}, err
	}
	if err := s.b.writeRecord(rec); err != nil {
		return Record{}, err
	}
	return rec, nil
}

// RequestCancel asks for a job to stop. A Pending job is cancelled
// immediately; a Running job gets CancelRequested set, which its owner
// observes at the next Renew and finishes the job as Cancelled.
// Terminal jobs return ErrTerminal.
func (s *Store) RequestCancel(id string) (Record, error) {
	if err := s.lock(); err != nil {
		return Record{}, err
	}
	defer s.unlock()
	rec, err := s.b.readRecord(id)
	if err != nil {
		return Record{}, err
	}
	switch {
	case rec.State.Terminal():
		return rec, fmt.Errorf("%w: %s is %s", ErrTerminal, id, rec.State)
	case rec.State == Pending:
		rec.State = Cancelled
		rec.FinishedMS = s.now().UnixMilli()
		if err := s.b.appendWAL(walEvent{Event: "cancel", ID: id, Tenant: rec.Tenant, From: Pending, To: Cancelled}); err != nil {
			return Record{}, err
		}
	default: // Running
		rec.CancelRequested = true
		if err := s.b.appendWAL(walEvent{Event: "cancel_requested", ID: id, Tenant: rec.Tenant, Owner: rec.Owner}); err != nil {
			return Record{}, err
		}
	}
	if err := s.b.writeRecord(rec); err != nil {
		return Record{}, err
	}
	return rec, nil
}

// Stats is a point-in-time summary for metrics and admission control.
type Stats struct {
	ByState   map[State]int
	ByTenant  map[string]int // non-terminal jobs per tenant
	Recovered int            // total lease-expiry re-attachments
	Served    map[string]float64
}

// Stats summarizes every record, terminal ones included (the /metrics
// totals). It costs O(all jobs ever stored); admission uses LiveStats.
func (s *Store) Stats() (Stats, error) { return s.stats(s.b.listLocked) }

// LiveStats summarizes the live set only: ByState holds Pending and
// Running, Recovered counts the live jobs' re-attachments. It answers
// both admission questions — the pending backlog and a tenant's active
// jobs — at O(live jobs).
func (s *Store) LiveStats() (Stats, error) { return s.stats(s.b.liveLocked) }

func (s *Store) stats(scan func() ([]Record, error)) (Stats, error) {
	if err := s.lock(); err != nil {
		return Stats{}, err
	}
	defer s.unlock()
	recs, err := scan()
	if err != nil {
		return Stats{}, err
	}
	return s.summarize(recs), nil
}

// summarize counts recs. Caller holds the lock.
func (s *Store) summarize(recs []Record) Stats {
	st := Stats{
		ByState:  make(map[State]int),
		ByTenant: make(map[string]int),
		Served:   s.b.readShares().Served,
	}
	for _, r := range recs {
		st.ByState[r.State]++
		st.Recovered += r.Recovered
		if !r.State.Terminal() {
			st.ByTenant[r.Tenant]++
		}
	}
	return st
}

// ReadWAL parses the store's transition log (ops tooling and tests).
// A torn final line (crash mid-append) terminates the read silently.
func ReadWAL(dir string) ([]map[string]any, error) {
	data, err := os.ReadFile(filepath.Join(dir, "wal.jsonl"))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("jobstore: reading wal: %w", err)
	}
	var out []map[string]any
	for _, line := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			break
		}
		out = append(out, ev)
	}
	return out, nil
}
