package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ga"
	"repro/internal/jobstore"
	"repro/internal/search"
	"repro/internal/yeastgen"
)

// legacyRun is one line of testdata/legacy/resolved.json: a seed body of
// FuzzDesignRequestRoundTrip, whether the service accepted it before
// core.Spec replaced the service's own request resolution, and what it
// then resolved the body to. The landscape knobs are pinned for the one
// body that asked for that since-removed mode; no run resolves to them
// now.
type legacyRun struct {
	Body              string              `json:"body"`
	Accepted          bool                `json:"accepted"`
	TargetID          int                 `json:"target_id"`
	NonTargetIDs      []int               `json:"non_target_ids,omitempty"`
	GA                *ga.Params          `json:"ga,omitempty"`
	Workers           int                 `json:"workers,omitempty"`
	Threads           int                 `json:"threads,omitempty"`
	Termination       *ga.Termination     `json:"termination,omitempty"`
	WarmStart         bool                `json:"warm_start,omitempty"`
	NoFitnessCache    bool                `json:"no_fitness_cache,omitempty"`
	Strategy          string              `json:"strategy,omitempty"`
	Beam              search.BeamConfig   `json:"beam"`
	Anneal            search.AnnealConfig `json:"anneal"`
	LandscapeEps      float64             `json:"landscape_eps,omitempty"`
	LandscapePatience int                 `json:"landscape_patience,omitempty"`
}

// legacyOf renders a resolved run in the pinned form.
func legacyOf(body string, run core.Run) legacyRun {
	o := run.Options
	l := legacyRun{
		Body: body, Accepted: true,
		TargetID: run.TargetID, NonTargetIDs: run.NonTargetIDs,
		GA: &o.GA, Termination: &o.Termination,
		Workers: o.Cluster.Workers, Threads: o.Cluster.ThreadsPerWorker,
		WarmStart: o.WarmStart, NoFitnessCache: o.DisableFitnessCache,
		Strategy: o.Search.Strategy, Beam: o.Search.Beam, Anneal: o.Search.Anneal,
	}
	return l
}

// TestRequestsResolveAsBefore: every seed body of
// FuzzDesignRequestRoundTrip is accepted or refused as before core.Spec,
// and an accepted one resolves to the same target ID, non-target IDs and
// core.Options values (testdata/legacy/resolved.json, captured from the
// build before). testdata/legacy/store is a job store that build wrote
// with the accepted bodies: a submit now stores the same bytes, and each
// record, claimed now, resolves to those same values. The two accepted
// bodies that send the since-removed shards field are refused at submit
// now, but the records stored from them still resolve as pinned: a
// stored record is decoded leniently, and the field is dropped there.
// The two bodies that send the since-removed surrogate fields are
// refused at submit too, and the record stored from the accepted one
// fails at claim, naming the option: dropping it would run a different
// job. So does the body that asks for the since-removed landscape
// strategy: refused at submit, and its stored record fails at claim in
// Spec.Validate, naming the strategy.
func TestRequestsResolveAsBefore(t *testing.T) {
	pr, err := yeastgen.Generate(yeastgen.TestParams())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Proteins: pr.Proteins, Graph: pr.Graph, QueueWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Drain(context.Background()) })
	raw, err := os.ReadFile(filepath.Join("testdata", "legacy", "resolved.json"))
	if err != nil {
		t.Fatal(err)
	}
	var pinned []legacyRun
	if err := json.Unmarshal(raw, &pinned); err != nil {
		t.Fatal(err)
	}
	seeds := designRequestSeeds(pr.Proteins[0].Name(), pr.Proteins[1].Name(), pr.Proteins[2].Name())
	if len(seeds) != len(pinned) {
		t.Fatalf("%d seeds, %d pinned results", len(seeds), len(pinned))
	}
	byID := map[string]legacyRun{}
	storeForm := map[string][]byte{} // what a submit now writes to the store
	for i, body := range seeds {
		want := pinned[i]
		if want.Body != string(body) {
			t.Fatalf("seed %d is %s, pinned %s", i, body, want.Body)
		}
		got := legacyRun{Body: want.Body}
		var req DesignRequest
		if decodeJSON(httptest.NewRecorder(), httptest.NewRequest("POST", "/v1/designs", bytes.NewReader(body)), &req) {
			if run, err := srv.resolve(req); err == nil {
				got = legacyOf(want.Body, run)
			}
		}
		removed := bytes.Contains(body, []byte(`"shards"`)) || bytes.Contains(body, []byte(`"surrogate`)) || bytes.Contains(body, []byte(`"strategy":"landscape"`))
		switch {
		case removed && got.Accepted:
			t.Errorf("seed %d sends a removed field and was accepted", i)
		case !removed && !reflect.DeepEqual(got, want):
			t.Errorf("seed %d resolves differently\n got  %+v\n want %+v", i, got, want)
		}
		if want.Accepted {
			id := fmt.Sprintf("d-%06d", len(byID)+1)
			byID[id] = want
			if removed {
				continue
			}
			if storeForm[id], err = json.Marshal(req); err != nil {
				t.Fatal(err)
			}
		}
	}

	dir := t.TempDir()
	copyTree(t, filepath.Join("testdata", "legacy", "store"), dir)
	store, err := jobstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	claimed, landscapeRecords := 0, 0
	for {
		rec, _, ok, err := store.Claim("replica", time.Minute, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		claimed++
		want, known := byID[rec.ID]
		if !known {
			t.Fatalf("stored job %s matches no accepted seed", rec.ID)
		}
		if form, ok := storeForm[rec.ID]; ok && !bytes.Equal(rec.Spec, form) {
			t.Errorf("stored job %s holds %s; a submit of the same body now stores %s", rec.ID, rec.Spec, form)
		}
		run, err := srv.jobs.claim.resolve(rec.Spec)
		if bytes.Contains(rec.Spec, []byte(`"surrogate"`)) {
			if err == nil || !strings.Contains(err.Error(), "surrogate") {
				t.Errorf("stored job %s (%s) asks for the removed surrogate: err %v, want one naming it", rec.ID, rec.Spec, err)
			}
			continue
		}
		if bytes.Contains(rec.Spec, []byte(`"strategy":"landscape"`)) {
			landscapeRecords++
			if err == nil || !strings.Contains(err.Error(), `strategy "landscape" unknown`) {
				t.Errorf("stored job %s (%s) asks for the removed landscape strategy: err %v, want one naming it", rec.ID, rec.Spec, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("stored job %s (%s) no longer resolves: %v", rec.ID, rec.Spec, err)
		}
		if got := legacyOf(want.Body, run); !reflect.DeepEqual(got, want) {
			t.Errorf("stored job %s resolves differently\n got  %+v\n want %+v", rec.ID, got, want)
		}
	}
	if claimed != len(byID) {
		t.Errorf("claimed %d stored jobs, want %d", claimed, len(byID))
	}
	if landscapeRecords != 1 {
		t.Errorf("claimed %d stored landscape jobs, want the 1 pinned", landscapeRecords)
	}
}

// copyTree copies the regular files under src into dst.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}
