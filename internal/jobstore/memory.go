package jobstore

import (
	"fmt"
	"maps"
	"sort"
	"time"
)

// backing is the seam between the job lifecycle and where records are
// kept. Claim's orphan-then-fair-share pick, the lease checks of Renew,
// Finish and Release, RequestCancel and the summaries are written once,
// on Store, against these primitives; a holder only stores and retrieves.
// Every method but lockPeers is called with the store lock held.
type backing interface {
	// lockPeers excludes other processes sharing the records (inside
	// Store.mu, which excludes this process's goroutines).
	lockPeers() error
	unlockPeers()
	// liveLocked returns the pending and running records ordered by ID —
	// the set a claim or an admission decision depends on; listLocked
	// adds the terminal ones.
	liveLocked() ([]Record, error)
	listLocked() ([]Record, error)
	// readRecord returns one record (ErrNotFound); writeRecord installs
	// one, and a terminal record thereby leaves the live set for good.
	readRecord(id string) (Record, error)
	writeRecord(rec Record) error
	appendWAL(ev walEvent) error
	nextID() (string, error)
	readShares() shares
	writeShares(sh shares) error
}

// memStore is the holder behind OpenMemory: the directory holder's two
// directories as two maps, no log, no peers. Records share their Spec
// and Result bytes with the caller's; nobody writes through either.
type memStore struct {
	live, done map[string]Record
	seq        int
	served     map[string]float64
}

// OpenMemory returns a store whose records live in this process and die
// with it: the same leases, fair share, cancellation and admission as a
// directory store, without its files, fsyncs or peers.
func OpenMemory() *Store {
	return &Store{
		handle: handle{now: time.Now},
		b:      &memStore{live: map[string]Record{}, done: map[string]Record{}, served: map[string]float64{}},
	}
}

func (m *memStore) lockPeers() error { return nil }
func (m *memStore) unlockPeers()     {}

func (m *memStore) liveLocked() ([]Record, error) { return sorted(m.live), nil }
func (m *memStore) listLocked() ([]Record, error) { return sorted(m.live, m.done), nil }

func sorted(sets ...map[string]Record) []Record {
	var out []Record
	for _, set := range sets {
		for _, rec := range set {
			out = append(out, rec)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (m *memStore) readRecord(id string) (Record, error) {
	rec, ok := m.done[id]
	if !ok {
		rec, ok = m.live[id]
	}
	if !ok {
		return Record{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return rec, nil
}

func (m *memStore) writeRecord(rec Record) error {
	if rec.State.Terminal() {
		delete(m.live, rec.ID)
		m.done[rec.ID] = rec
	} else {
		m.live[rec.ID] = rec
	}
	return nil
}

func (m *memStore) appendWAL(walEvent) error { return nil }

func (m *memStore) nextID() (string, error) {
	m.seq++
	return fmt.Sprintf("d-%06d", m.seq), nil
}

// readShares hands out a copy: Stats returns it to callers that read it
// after the lock is gone, while Claim goes on charging the original.
func (m *memStore) readShares() shares { return shares{Served: maps.Clone(m.served)} }

func (m *memStore) writeShares(sh shares) error {
	m.served = sh.Served
	return nil
}
