package evalbackend

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/seq"
)

// HedgingConfig tunes WithHedging. Zero values select the defaults
// noted per field.
type HedgingConfig struct {
	// Fraction is the share of the round duplicate-issued to the hedge
	// backend when the primary straggles — the *last* ceil(Fraction·n)
	// candidates of the batch, the ones a queue-order master dispatches
	// latest and is therefore most likely still holding in flight.
	// Default 0.10; values are clamped to (0, 1].
	Fraction float64
	// Percentile of the observed per-candidate round latencies that
	// arms the hedge timer: the round must exceed its own size times
	// this percentile estimate before any duplicate is issued. Default
	// 0.90; clamped to (0, 0.99].
	Percentile float64
	// MinDelay floors the hedge timer so microscopic rounds never hedge
	// on noise. Default 10ms.
	MinDelay time.Duration
	// MaxDelay caps the hedge timer; 0 means no cap.
	MaxDelay time.Duration
}

// hedgeHistorySize bounds the latency ring; hedgeMinHistory is how
// many completed rounds must be observed before the first hedge can
// fire — until then the middleware is a passthrough.
const (
	hedgeHistorySize = 32
	hedgeMinHistory  = 3
)

// hedgingBackend duplicate-issues a straggling round's tail.
type hedgingBackend struct {
	primary Backend
	hedge   Backend
	cfg     HedgingConfig
	logger  *obs.Logger
	c       counters

	histMu sync.Mutex
	hist   []float64 // per-candidate round latencies, ns
	pos    int
}

// WithHedging layers tail-latency hedging over primary: once enough
// rounds have calibrated a per-candidate latency percentile, a round
// that overruns its estimate has its last Fraction of candidates
// duplicate-issued on hedge, and each candidate takes whichever clean
// result finished first. Because PIPE scoring is deterministic, the
// duplicate is bit-identical to the original — hedging changes wall
// time and accounting, never a score. Stale duplicates (the copy that
// lost the race) are dropped and counted in Stats()[HedgedStale], which
// is exactly the double-count the Designer subtracts so the journal's
// `evaluated` stays conservation-true; HedgedWins counts candidates
// whose hedge copy supplied the result used.
//
// The typical composition is WithRetry(WithHedging(master, pool),
// pool): hedging absorbs stragglers mid-round, retry absorbs outright
// failures after it. A nil hedge backend returns primary unchanged.
func WithHedging(primary, hedge Backend, cfg HedgingConfig, logger *obs.Logger) Backend {
	if hedge == nil {
		return primary
	}
	if cfg.Fraction <= 0 || cfg.Fraction > 1 {
		cfg.Fraction = 0.10
	}
	if cfg.Percentile <= 0 || cfg.Percentile > 0.99 {
		cfg.Percentile = 0.90
	}
	if cfg.MinDelay <= 0 {
		cfg.MinDelay = 10 * time.Millisecond
	}
	return &hedgingBackend{primary: primary, hedge: hedge, cfg: cfg, logger: logger}
}

// batchDone carries one backend call's outcome and completion time.
type batchDone struct {
	res []cluster.Result
	err error
	at  time.Time
}

func (b *hedgingBackend) EvaluateAll(ctx context.Context, seqs []seq.Sequence) ([]cluster.Result, error) {
	n := len(seqs)
	delay, armed := b.hedgeDelay(n)
	if !armed {
		start := time.Now()
		res, err := b.primary.EvaluateAll(ctx, seqs)
		if err == nil && n > 0 {
			b.record(time.Since(start), n)
		}
		return res, err
	}

	start := time.Now()
	primCh := make(chan batchDone, 1)
	go func() {
		res, err := b.primary.EvaluateAll(ctx, seqs)
		primCh <- batchDone{res, err, time.Now()}
	}()

	timer := time.NewTimer(delay)
	defer timer.Stop()
	var prim batchDone
	hedged := false
	tailStart := 0
	var hedgeCh chan batchDone
	var cancelHedge context.CancelFunc
	select {
	case prim = <-primCh:
	case <-timer.C:
		k := int(math.Ceil(b.cfg.Fraction * float64(n)))
		if k < 1 {
			k = 1
		}
		if k > n {
			k = n
		}
		tailStart = n - k
		hedged = true
		b.c[HedgesIssued].Add(int64(k))
		b.logger.Debug("hedging straggling round tail",
			"candidates", n, "hedged", k, "delay", delay)
		hctx, cancel := context.WithCancel(ctx)
		cancelHedge = cancel
		hedgeCh = make(chan batchDone, 1)
		go func() {
			res, err := b.hedge.EvaluateAll(hctx, seqs[tailStart:])
			hedgeCh <- batchDone{res, err, time.Now()}
		}()
		prim = <-primCh
	}

	var hres batchDone
	if hedged {
		// Joining the hedge before returning keeps the Stats snapshot
		// the Designer diffs after this call self-consistent: every
		// duplicate task the hedge scored is matched by its
		// HedgedStale/HedgedWins entry within the same round.
		cancelHedge()
		hres = <-hedgeCh
		if hres.err == nil && len(hres.res) != n-tailStart {
			hres.err = fmt.Errorf("evalbackend: hedge returned %d results for %d candidates", len(hres.res), n-tailStart)
		}
	}

	if prim.err == nil && len(prim.res) != n {
		prim.err = fmt.Errorf("evalbackend: backend returned %d results for %d candidates", len(prim.res), n)
	}
	if prim.err != nil {
		// The whole batch failed upward (WithRetry handles it); any
		// clean hedge duplicates are dropped with it, so count them as
		// stale to keep `evaluated` conservation-true when the fallback
		// re-scores the full round.
		if ctx.Err() == nil && hedged && hres.err == nil {
			stale := int64(0)
			for _, r := range hres.res {
				if r.Err == nil {
					stale++
				}
			}
			b.c[HedgedStale].Add(stale)
		}
		return nil, prim.err
	}
	b.record(prim.at.Sub(start), n)
	if !hedged || hres.err != nil {
		return prim.res, nil
	}

	hedgeWon := hres.at.Before(prim.at)
	out := prim.res
	wins, stale := int64(0), int64(0)
	for j := range hres.res {
		i := tailStart + j
		hr, pr := hres.res[j], out[i]
		switch {
		case hedgeWon && hr.Err == nil:
			hr.Index = i
			out[i] = hr
			wins++
			if pr.Err == nil {
				stale++ // primary's clean duplicate lost the race
			}
		case pr.Err == nil:
			if hr.Err == nil {
				stale++ // hedge's clean duplicate lost the race
			}
		case hr.Err == nil:
			// Primary abandoned this candidate but the duplicate
			// scored it cleanly — the hedge doubles as recovery.
			hr.Index = i
			out[i] = hr
			wins++
		}
	}
	b.c[HedgedWins].Add(wins)
	b.c[HedgedStale].Add(stale)
	if wins > 0 || stale > 0 {
		b.logger.Debug("hedged round tail merged",
			"hedged", len(hres.res), "wins", wins, "stale", stale, "hedge_won", hedgeWon)
	}
	return out, nil
}

// hedgeDelay returns the armed hedge timer for a round of n candidates,
// or armed=false while the latency history is still warming up.
func (b *hedgingBackend) hedgeDelay(n int) (time.Duration, bool) {
	if n == 0 {
		return 0, false
	}
	b.histMu.Lock()
	defer b.histMu.Unlock()
	if len(b.hist) < hedgeMinHistory {
		return 0, false
	}
	sorted := make([]float64, len(b.hist))
	copy(sorted, b.hist)
	sort.Float64s(sorted)
	rank := b.cfg.Percentile * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	perNS := sorted[lo]
	if hi > lo {
		frac := rank - float64(lo)
		perNS = sorted[lo]*(1-frac) + sorted[hi]*frac
	}
	d := time.Duration(perNS * float64(n))
	if d < b.cfg.MinDelay {
		d = b.cfg.MinDelay
	}
	if b.cfg.MaxDelay > 0 && d > b.cfg.MaxDelay {
		d = b.cfg.MaxDelay
	}
	return d, true
}

// record folds a completed primary round into the latency ring.
func (b *hedgingBackend) record(wall time.Duration, n int) {
	per := float64(wall) / float64(n)
	b.histMu.Lock()
	defer b.histMu.Unlock()
	if len(b.hist) < hedgeHistorySize {
		b.hist = append(b.hist, per)
		return
	}
	b.hist[b.pos] = per
	b.pos = (b.pos + 1) % hedgeHistorySize
}

func (b *hedgingBackend) Stats() Stats {
	return b.c.snapshot().Add(b.primary.Stats()).Add(b.hedge.Stats())
}

func (b *hedgingBackend) Close() error {
	err := b.primary.Close()
	if herr := b.hedge.Close(); herr != nil && err == nil {
		err = herr
	}
	return err
}
