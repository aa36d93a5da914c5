package experiments

import (
	"fmt"
	"io"
	"path/filepath"
	"strings"

	"repro/internal/obs"
	"repro/internal/stats"
)

// ReplayJournal renders a run journal (journal.jsonl, see internal/obs)
// as Figure 7-style learning curves without re-running the campaign:
// sparklines and final values for the target / max non-target / avg
// non-target series, fitness progress, and the evaluation accounting an
// operator cares about (cache hit rate, eval wall time, worker churn).
// path may be the journal file itself or its run directory. When dataDir
// is non-empty a gnuplot-style journal_curves.dat is written there.
func ReplayJournal(path string, out io.Writer, dataDir string) error {
	if !strings.HasSuffix(path, ".jsonl") {
		path = obs.JournalPath(path)
	}
	recs, err := obs.ReadJournal(path)
	if err != nil {
		return err
	}
	if len(recs) == 0 {
		return fmt.Errorf("experiments: journal %s has no records", path)
	}

	var tgt, maxNT, avgNT, best, bestEver, evalMS []float64
	sTgt := stats.Series{Name: "target"}
	sMax := stats.Series{Name: "max non-target"}
	sAvg := stats.Series{Name: "avg non-target"}
	sBest := stats.Series{Name: "best fitness"}
	var evaluated, cacheHits, checkpoints, newBests int
	for _, r := range recs {
		g := float64(r.Generation)
		tgt = append(tgt, r.Target)
		maxNT = append(maxNT, r.MaxNonTarget)
		avgNT = append(avgNT, r.AvgNonTarget)
		best = append(best, r.BestFitness)
		bestEver = append(bestEver, r.BestEverFitness)
		evalMS = append(evalMS, r.EvalWallMS)
		sTgt.Add(g, r.Target)
		sMax.Add(g, r.MaxNonTarget)
		sAvg.Add(g, r.AvgNonTarget)
		sBest.Add(g, r.BestFitness)
		evaluated += r.Evaluated
		cacheHits += r.CacheHits
		if r.Checkpointed {
			checkpoints++
		}
		if r.NewBest {
			newBests++
		}
	}

	first, final := recs[0], recs[len(recs)-1]
	fmt.Fprintf(out, "Journal replay: %s\n", path)
	fmt.Fprintf(out, "%d records, generations %d-%d, best-ever fitness %.4f (%d improvements, %d checkpoints)\n",
		len(recs), first.Generation, final.Generation, last(bestEver), newBests, checkpoints)
	fmt.Fprintf(out, "  target       %s %.3f\n", stats.Sparkline(decimate(tgt, 40)), last(tgt))
	fmt.Fprintf(out, "  max non-tgt  %s %.3f\n", stats.Sparkline(decimate(maxNT, 40)), last(maxNT))
	fmt.Fprintf(out, "  avg non-tgt  %s %.3f\n", stats.Sparkline(decimate(avgNT, 40)), last(avgNT))
	fmt.Fprintf(out, "  best fitness %s %.3f\n", stats.Sparkline(decimate(best, 40)), last(best))

	total := evaluated + cacheHits
	hitRate := 0.0
	if total > 0 {
		hitRate = float64(cacheHits) / float64(total)
	}
	fmt.Fprintf(out, "evaluations: %d scored, %d cache hits (%.1f%% hit rate), mean eval %.1f ms/gen\n",
		evaluated, cacheHits, 100*hitRate, stats.Mean(evalMS))
	if final.Workers > 0 || final.TasksReissued > 0 || final.LeasesExpired > 0 {
		var reissued, expired int64
		for _, r := range recs {
			reissued += r.TasksReissued
			expired += r.LeasesExpired
		}
		fmt.Fprintf(out, "cluster: %d workers at last record, %d tasks reissued, %d leases expired\n",
			final.Workers, reissued, expired)
	}

	if dataDir == "" {
		return nil
	}
	var buf []byte
	for _, s := range []stats.Series{sTgt, sMax, sAvg, sBest} {
		buf = appendSeries(buf, s)
	}
	e := &Env{DataDir: dataDir}
	name := "journal_curves.dat"
	if base := filepath.Base(filepath.Dir(path)); base != "." && base != string(filepath.Separator) {
		name = "journal_" + base + "_curves.dat"
	}
	if err := e.saveData(name, string(buf)); err != nil {
		return err
	}
	fmt.Fprintf(out, "curves written to %s\n", filepath.Join(dataDir, name))
	return nil
}
