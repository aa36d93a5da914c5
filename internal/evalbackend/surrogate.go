package evalbackend

import (
	"context"
	"math"
	"math/rand"
	"sort"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/seq"
	"repro/internal/surrogate"
)

// SurrogateConfig tunes the WithSurrogate middleware.
type SurrogateConfig struct {
	// Model is the online regressor; nil builds a fresh
	// surrogate.NewModel with defaults. Sharing one model across chains
	// (e.g. restarts of the same problem) is allowed — it is internally
	// synchronized and deduplicates training pairs.
	Model *surrogate.Model
	// TopK is the fraction of each generation forwarded to the real
	// backend by predicted fitness, rounded to a count with a floor of
	// one candidate. Default 0.10.
	TopK float64
	// Explore is the additional fraction forwarded uniformly at random
	// from the non-elite remainder — the insurance against a confidently
	// wrong model starving the GA of signal. Default 0.05; negative
	// disables the quota entirely.
	Explore float64
	// Warmup is the number of trained pairs the model must absorb before
	// filtering starts; earlier rounds forward everything (and train).
	// Default 128.
	Warmup int
	// Seed drives the exploration sampler. Runs with equal seeds and
	// equal round sequences make identical exploration draws, keeping
	// surrogate-filtered campaigns bit-reproducible.
	Seed int64
	// Logger, if non-nil, receives filtering decisions at debug level.
	Logger *obs.Logger
}

func (c SurrogateConfig) withDefaults() SurrogateConfig {
	if c.Model == nil {
		c.Model = surrogate.NewModel(surrogate.ModelConfig{})
	}
	if c.TopK <= 0 {
		c.TopK = 0.10
	}
	if c.TopK > 1 {
		c.TopK = 1
	}
	if c.Explore == 0 {
		c.Explore = 0.05
	}
	if c.Explore < 0 { // negative = explicitly no exploration quota
		c.Explore = 0
	}
	if c.Explore > 1 {
		c.Explore = 1
	}
	if c.Warmup <= 0 {
		c.Warmup = 128
	}
	return c
}

// surrogateBackend triages each round through the online model.
type surrogateBackend struct {
	inner Backend
	cfg   SurrogateConfig
	model *surrogate.Model
	rng   *rand.Rand
	c     counters
}

// WithSurrogate layers the online surrogate pre-scorer over inner. Until
// the model has absorbed cfg.Warmup real evaluations every candidate is
// forwarded unchanged; afterwards each round is scored by the model
// instantly, only the predicted top-K fraction plus a random exploration
// quota reach inner, and the rest are answered with surrogate estimates
// (Stats().SurrogateEstimated). Every clean result that comes back —
// including fitness-cache hits when stacked over WithFitnessCache; the
// model deduplicates by sequence so those never train twice — is fed to
// the model, and the prediction error of each trained pair accumulates
// into Stats().SurrogateErrMicro for calibration monitoring.
//
// Estimated results are capped strictly below the round's best really-
// evaluated fitness, so the generation winner (and therefore the
// campaign's reported best sequence) is always backed by a full PIPE
// evaluation, never by an estimate.
//
// Place WithSurrogate outermost — above WithFitnessCache — so estimates
// are never memoized as real scores. The model trains on max and mean
// non-target scores, so a chain with a surrogate must not be called
// target-first (cluster.WithTargetFirst); core.Designer marks a call
// only when no surrogate is configured. The middleware is opt-in: a
// design run without it is byte-for-byte the pre-surrogate pipeline.
func WithSurrogate(inner Backend, cfg SurrogateConfig) Backend {
	cfg = cfg.withDefaults()
	return &surrogateBackend{
		inner: inner,
		cfg:   cfg,
		model: cfg.Model,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}
}

func (b *surrogateBackend) EvaluateAll(ctx context.Context, seqs []seq.Sequence) ([]cluster.Result, error) {
	n := len(seqs)
	if b.model.Observations() < int64(b.cfg.Warmup) {
		results, err := b.inner.EvaluateAll(ctx, seqs)
		if err != nil {
			return nil, err
		}
		b.train(seqs, results)
		return results, nil
	}

	preds := make([]surrogate.Prediction, n)
	for i, s := range seqs {
		preds[i] = b.model.Predict(s.Residues())
	}
	forward := b.selectForward(preds)
	if len(forward) >= n {
		results, err := b.inner.EvaluateAll(ctx, seqs)
		if err != nil {
			return nil, err
		}
		b.train(seqs, results)
		return results, nil
	}

	sub := make([]seq.Sequence, len(forward))
	for k, i := range forward {
		sub[k] = seqs[i]
	}
	subResults, err := b.inner.EvaluateAll(ctx, sub)
	if err != nil {
		return nil, err
	}
	b.train(sub, subResults)

	// Cap estimates strictly below the best real fitness of the round,
	// and shape the backfilled NonTargetScores like the real results so
	// max/mean decompositions stay meaningful downstream.
	bestReal, ntLen := 0.0, 0
	haveReal := false
	for _, r := range subResults {
		if r.Err != nil {
			continue
		}
		fit := (1 - maxScore(r.NonTargetScores)) * r.TargetScore
		if !haveReal || fit > bestReal {
			bestReal = fit
		}
		haveReal = true
		ntLen = len(r.NonTargetScores)
	}
	cap := 0.0
	if haveReal && bestReal > 0 {
		cap = math.Nextafter(bestReal, 0)
	}

	out := make([]cluster.Result, n)
	forwarded := make([]bool, n)
	for k, i := range forward {
		r := subResults[k]
		r.Index = i
		out[i] = r
		forwarded[i] = true
	}
	estimated := 0
	for i := range seqs {
		if forwarded[i] {
			continue
		}
		out[i] = estimateResult(i, preds[i], cap, ntLen)
		estimated++
	}
	b.c.surrEstimated.Add(int64(estimated))
	b.cfg.Logger.Debug("surrogate triage",
		"candidates", n, "forwarded", len(forward), "estimated", estimated,
		"model_mae", b.model.Calibration().FitnessMAE)
	return out, nil
}

// selectForward picks the indices to evaluate for real: the top-K by
// predicted fitness (ties broken by index, so selection is
// deterministic) plus an exploration quota drawn from the remainder with
// the middleware's seeded RNG.
func (b *surrogateBackend) selectForward(preds []surrogate.Prediction) []int {
	n := len(preds)
	k := int(math.Round(b.cfg.TopK * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, c int) bool {
		return preds[order[a]].Fitness > preds[order[c]].Fitness
	})
	selected := append([]int(nil), order[:k]...)

	explore := int(math.Round(b.cfg.Explore * float64(n)))
	if rest := n - k; explore > rest {
		explore = rest
	}
	if explore > 0 {
		rest := append([]int(nil), order[k:]...)
		sort.Ints(rest) // index order, independent of prediction ties
		for j := 0; j < explore; j++ {
			swap := j + b.rng.Intn(len(rest)-j)
			rest[j], rest[swap] = rest[swap], rest[j]
			selected = append(selected, rest[j])
		}
	}
	sort.Ints(selected)
	return selected
}

// train feeds a round's clean results to the model and accumulates the
// prequential prediction error of every pair it actually absorbed.
func (b *surrogateBackend) train(seqs []seq.Sequence, results []cluster.Result) {
	if len(results) != len(seqs) {
		return // inner's length failure surfaces at the call site
	}
	for i, r := range results {
		if r.Err != nil {
			continue // abandonment is not a score; never train on it
		}
		residues := seqs[i].Residues()
		maxNT := maxScore(r.NonTargetScores)
		pred := b.model.Predict(residues)
		if !b.model.Observe(residues, r.TargetScore, maxNT, meanScore(r.NonTargetScores)) {
			continue
		}
		trueFit := (1 - maxNT) * r.TargetScore
		b.c.surrTrained.Add(1)
		b.c.surrErrMicro.Add(int64(math.Abs(pred.Fitness-trueFit) * 1e6))
	}
}

// estimateResult backfills one skipped candidate with the surrogate's
// score decomposition, scaled so its implied fitness stays below cap.
// The NonTargetScores are shaped to reproduce the predicted max and mean
// under core's MaxScore/MeanScore (ntLen == 0 means the problem has no
// non-targets, so the estimate is the target head alone).
func estimateResult(index int, p surrogate.Prediction, cap float64, ntLen int) cluster.Result {
	target := p.Target
	fit := p.Fitness
	if ntLen == 0 {
		fit = target
	}
	if fit > cap {
		scale := 0.0
		if fit > 0 {
			scale = cap / fit
		}
		target *= scale
		fit = cap
	}
	r := cluster.Result{Index: index, TargetScore: target}
	if ntLen == 1 {
		r.NonTargetScores = []float64{p.MaxNonTarget}
	} else if ntLen > 1 {
		lo := 2*p.AvgNonTarget - p.MaxNonTarget
		if lo < 0 {
			lo = 0
		}
		r.NonTargetScores = []float64{p.MaxNonTarget, lo}
	}
	return r
}

func maxScore(scores []float64) float64 {
	max := 0.0
	for _, s := range scores {
		if s > max {
			max = s
		}
	}
	return max
}

func meanScore(scores []float64) float64 {
	if len(scores) == 0 {
		return 0
	}
	total := 0.0
	for _, s := range scores {
		total += s
	}
	return total / float64(len(scores))
}

func (b *surrogateBackend) Stats() Stats { return b.c.snapshot().Add(b.inner.Stats()) }

func (b *surrogateBackend) Close() error { return b.inner.Close() }
