package core_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pipe"
	"repro/internal/seq"
	"repro/internal/server"
	"repro/internal/yeastgen"
)

var (
	fixOnce   sync.Once
	fixProt   *yeastgen.Proteome
	fixEngine *pipe.Engine
)

func fixture(t testing.TB) (*yeastgen.Proteome, *pipe.Engine) {
	t.Helper()
	fixOnce.Do(func() {
		pr, err := yeastgen.Generate(yeastgen.TestParams())
		if err != nil {
			panic(err)
		}
		eng, err := pipe.New(pr.Proteins, pr.Graph, pipe.Config{}, 0)
		if err != nil {
			panic(err)
		}
		fixProt, fixEngine = pr, eng
	})
	return fixProt, fixEngine
}

// bindArgs parses insips arguments through its flag binding, onto
// core.CLIDefaults as insips does.
func bindArgs(t testing.TB, args []string) core.Spec {
	t.Helper()
	spec := core.CLIDefaults
	fs := flag.NewFlagSet("insips", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	spec.BindFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("insips flags %q: %v", args, err)
	}
	return spec
}

// insipsArgs renders a spec as insips arguments, one -name=value per
// flag its binding registers.
func insipsArgs(spec core.Spec) []string {
	fs := flag.NewFlagSet("render", flag.ContinueOnError)
	spec.BindFlags(fs) // each flag defaults to, so renders, the field's value
	var args []string
	fs.VisitAll(func(fl *flag.Flag) { args = append(args, "-"+fl.Name+"="+fl.Value.String()) })
	return args
}

// buildInsips builds cmd/insips into dir, or skips when no go command is
// at hand.
func buildInsips(t *testing.T, dir string) string {
	t.Helper()
	goCmd, err := exec.LookPath("go")
	if err != nil {
		goCmd = filepath.Join(runtime.GOROOT(), "bin", "go")
		if _, err := os.Stat(goCmd); err != nil {
			t.Skip("no go command to build cmd/insips with")
		}
	}
	bin := filepath.Join(dir, "insips")
	if out, err := exec.Command(goCmd, "build", "-o", bin, "repro/cmd/insips").CombinedOutput(); err != nil {
		t.Fatalf("building cmd/insips: %v\n%s", err, out)
	}
	return bin
}

// TestSpecErrorsOnBothSurfaces drives every validation error either
// front-end had before they shared core.Spec through the one Validate and
// Resolve, then through insips (its flag binding, and the binary's exit
// status) and insipsd (POST /v1/designs). Each row is exit 2 and HTTP
// 400 with the same message.
func TestSpecErrorsOnBothSurfaces(t *testing.T) {
	pr, eng := fixture(t)
	a := pr.Proteins[0].Name()
	srv, err := server.New(server.Config{Proteins: pr.Proteins, Graph: pr.Graph, Engines: []*pipe.Engine{eng}, QueueWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Drain(context.Background()) })
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	dir := t.TempDir()
	fasta, tsv := filepath.Join(dir, "proteome.fasta"), filepath.Join(dir, "interactions.tsv")
	if err := seq.SaveFASTAFile(fasta, pr.Proteins); err != nil {
		t.Fatal(err)
	}
	if err := pr.Graph.SaveTSVFile(tsv); err != nil {
		t.Fatal(err)
	}
	insips := buildInsips(t, dir)

	target := []string{"-target", a}
	rows := []struct {
		name string
		args []string
		body string // %[1]q is the target's name
		want string
	}{
		{"no target", nil, `{}`, "need target"},
		{"unknown target", []string{"-target", "NOPE"}, `{"target":"NOPE"}`, `target "NOPE" not in the proteome`},
		{"unknown non-target", append(target, "-non-targets", "NOPE"), `{"target":%[1]q,"non_targets":["NOPE"]}`, `non-target "NOPE"`},
		{"short seq_len", append(target, "-len", "10"), `{"target":%[1]q,"seq_len":10}`, "too short"},
		{"unknown strategy", append(target, "-strategy", "tabu"), `{"target":%[1]q,"strategy":"tabu"}`, "unknown"},
		{"removed strategy", append(target, "-strategy", "landscape"), `{"target":%[1]q,"strategy":"landscape"}`, `strategy "landscape" unknown: must be one of [ga beam anneal]`},
		{"beam knob under ga", append(target, "-beam-width", "4"), `{"target":%[1]q,"beam_width":4}`, `require strategy "beam"`},
		{"anneal knob under beam", append(target, "-strategy", "beam", "-anneal-t0", "0.5"), `{"target":%[1]q,"strategy":"beam","anneal_t0":0.5}`, `require strategy "anneal"`},
		{"bad anneal schedule", append(target, "-strategy", "anneal", "-anneal-cooling", "1.5"), `{"target":%[1]q,"strategy":"anneal","anneal_cooling":1.5}`, "cooling"},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			spec := bindArgs(t, row.args)
			err := spec.Validate()
			if err == nil {
				_, err = spec.Resolve(pr.Graph)
			}
			if err == nil || !strings.Contains(err.Error(), row.want) {
				t.Fatalf("Validate/Resolve: %v, want an error containing %q", err, row.want)
			}
			msg := err.Error()

			resp, err := http.Post(ts.URL+"/v1/designs", "application/json", strings.NewReader(fmt.Sprintf(row.body, a)))
			if err != nil {
				t.Fatal(err)
			}
			var answer struct {
				Error string `json:"error"`
			}
			decodeErr := json.NewDecoder(resp.Body).Decode(&answer)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || decodeErr != nil || answer.Error != msg {
				t.Errorf("insipsd: %d %q (%v), want 400 %q", resp.StatusCode, answer.Error, decodeErr, msg)
			}

			cmd := exec.Command(insips, append(row.args, "-proteome", fasta, "-graph", tsv)...)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			err = cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 || stderr.String() != "insips: "+msg+"\n" {
				t.Errorf("insips: %v, stderr %q; want exit 2 and %q", err, stderr.String(), "insips: "+msg+"\n")
			}
		})
	}

	// Removed options: insips exits 2 on the flag, insipsd answers the
	// field 400 (unknown field), each naming the first one sent. The
	// surrogate rows and the first landscape row send what were pairing
	// and range errors before Spec lost those knobs; both surfaces still
	// refuse them.
	for _, row := range []struct {
		name        string
		args        []string
		body        string // %[1]q is the target's name
		flag, field string
	}{
		{"shards", append(target, "-shards", "2"), `{"target":%[1]q,"shards":2}`, "shards", "shards"},
		{"surrogate knob without surrogate", append(target, "-surrogate-topk", "0.5"), `{"target":%[1]q,"surrogate_topk":0.5}`, "surrogate-topk", "surrogate_topk"},
		{"surrogate top-k over 1", append(target, "-surrogate", "-surrogate-topk", "1.5"), `{"target":%[1]q,"surrogate":true,"surrogate_topk":1.5}`, "surrogate", "surrogate"},
		{"surrogate explore over 1", append(target, "-surrogate", "-surrogate-explore", "2"), `{"target":%[1]q,"surrogate":true,"surrogate_explore":2}`, "surrogate", "surrogate"},
		{"landscape knob under ga", append(target, "-landscape-eps", "0.1"), `{"target":%[1]q,"landscape_eps":0.1}`, "landscape-eps", "landscape_eps"},
		{"landscape patience", append(target, "-strategy", "landscape", "-landscape-patience", "5"), `{"target":%[1]q,"strategy":"landscape","landscape_patience":5}`, "landscape-patience", "landscape_patience"},
	} {
		t.Run(row.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/designs", "application/json", strings.NewReader(fmt.Sprintf(row.body, a)))
			if err != nil {
				t.Fatal(err)
			}
			var answer struct {
				Error string `json:"error"`
			}
			decodeErr := json.NewDecoder(resp.Body).Decode(&answer)
			resp.Body.Close()
			if want := fmt.Sprintf("unknown field %q", row.field); resp.StatusCode != http.StatusBadRequest || decodeErr != nil || !strings.Contains(answer.Error, want) {
				t.Errorf("insipsd: %d %q (%v), want 400 and %q", resp.StatusCode, answer.Error, decodeErr, want)
			}

			cmd := exec.Command(insips, append(row.args, "-proteome", fasta, "-graph", tsv)...)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			err = cmd.Run()
			var exit *exec.ExitError
			if want := "flag provided but not defined: -" + row.flag + "\n"; !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(stderr.String(), want) {
				t.Errorf("insips %q: %v, stderr %q; want exit 2 and %q", row.args, err, stderr.String(), want)
			}
		})
	}

	// What only insips refuses: a deployment flag without the mode it
	// belongs to. It exits 2, as a spec error does.
	args := append(target, "-fallback-local")
	cmd := exec.Command(insips, append(args, "-proteome", fasta, "-graph", tsv)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err = cmd.Run()
	var exit *exec.ExitError
	if want := "insips: -fallback-local requires -listen"; !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(stderr.String(), want) {
		t.Errorf("insips %q: %v, stderr %q; want exit 2 and %q", args, err, stderr.String(), want)
	}
}

// TestOneSpecTwoSurfaces runs one spec, with every field a profile
// defaults set explicitly, through insips' flag binding into a
// core.Designer and as a live insipsd job, both journaled: the two runs
// evaluate the same population in every generation.
func TestOneSpecTwoSurfaces(t *testing.T) {
	pr, eng := fixture(t)
	journals := t.TempDir()
	srv, err := server.New(server.Config{
		Proteins: pr.Proteins, Graph: pr.Graph, Engines: []*pipe.Engine{eng},
		QueueWorkers: 1, JournalDir: journals,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Drain(context.Background()) })
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	warm := true
	base := core.Spec{
		Target: pr.Proteins[0].Name(), MaxNonTargets: 3,
		Population: 40, SeqLen: 40,
		PCrossover: 0.5, PMutate: 0.4, PCopy: 0.1, PMutateAA: 0.05, Seed: 7,
		MinGenerations: 5, StallGens: 5, MaxGenerations: 5,
		WarmStart: &warm, Workers: 1, Threads: 1,
		Strategy: "ga",
	}
	for _, c := range []struct {
		name   string
		mutate func(*core.Spec)
	}{
		{"ga", func(*core.Spec) {}},
		{"beam", func(s *core.Spec) { s.Strategy, s.BeamWidth, s.BeamExpand = "beam", 4, 3 }},
		{"anneal", func(s *core.Spec) { s.Strategy = "anneal" }},
	} {
		t.Run(c.name, func(t *testing.T) {
			spec := base
			c.mutate(&spec)

			run, err := bindArgs(t, insipsArgs(spec)).Resolve(pr.Graph)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			journal, err := obs.OpenJournal(dir, obs.JournalOptions{})
			if err != nil {
				t.Fatal(err)
			}
			run.Options.Journal = journal
			designer, err := core.NewDesigner(run.Problem(eng), run.Options)
			if err != nil {
				t.Fatal(err)
			}
			_, err = designer.RunContext(context.Background())
			journal.Close()
			if err != nil {
				t.Fatal(err)
			}
			cli := popHashes(t, dir)

			body, err := json.Marshal(spec)
			if err != nil {
				t.Fatal(err)
			}
			id := submitAndWait(t, ts.URL, body)
			served := popHashes(t, filepath.Join(journals, id))

			if len(cli) != 5 || !reflect.DeepEqual(cli, served) {
				t.Errorf("pop_hash per generation\n insips  %v\n insipsd %v", cli, served)
			}
		})
	}
}

// popHashes reads a journal's per-generation pop_hash.
func popHashes(t *testing.T, dir string) (hashes []string) {
	t.Helper()
	recs, err := obs.ReadJournal(obs.JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		hashes = append(hashes, rec.PopHash)
	}
	return hashes
}

// submitAndWait posts a design request and waits for the job to finish
// done, returning its ID.
func submitAndWait(t *testing.T, base string, body []byte) string {
	t.Helper()
	resp, err := http.Post(base+"/v1/designs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var job server.JobJSON
	err = json.NewDecoder(resp.Body).Decode(&job)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || err != nil {
		t.Fatalf("submit %s: %d (%v)", body, resp.StatusCode, err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for !job.State.Terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s", job.ID, job.State)
		}
		time.Sleep(10 * time.Millisecond)
		resp, err := http.Get(base + "/v1/designs/" + job.ID)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&job)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	if job.State != server.JobDone {
		t.Fatalf("job %s finished %s: %s", job.ID, job.State, job.Error)
	}
	return job.ID
}
