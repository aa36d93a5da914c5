package core

import "fmt"

// Multi-target design is the paper's stated future direction ("designing
// inhibitory proteins to obstruct the spread of certain viruses"): a
// single synthetic protein that binds *every* protein in a target set —
// e.g. the variant surface proteins of a virus — while avoiding the
// non-targets. The fitness generalizes the single-target formula with
// the weakest target link as the bottleneck:
//
//	fitness(seq) = (1 - MAX(PIPE(seq, nts))) * MIN_t(PIPE(seq, t))
//
// A multi-target run is an ordinary Designer run over a Problem with
// CoTargetIDs set: the co-targets ride the evaluation backends as
// leading entries of the non-target list, and the Designer re-splits
// each score profile.

// MultiFitness computes the multi-target fitness. An empty target set
// scores 0 (there is nothing to bind).
func MultiFitness(targetScores, nonTargetScores []float64) float64 {
	if len(targetScores) == 0 {
		return 0
	}
	return Fitness(weakestLink(targetScores[0], targetScores[1:]), nonTargetScores)
}

// weakestLink is MIN over the target score and the co-target scores.
func weakestLink(target float64, coTargets []float64) float64 {
	for _, s := range coTargets {
		if s < target {
			target = s
		}
	}
	return target
}

// WireNonTargets returns the non-target list an evaluation backend for
// this problem is built over (cluster.New, netcluster.NewSetup): the
// co-targets first, then the non-targets, so a Result's
// NonTargetScores[:len(CoTargetIDs)] are the co-target scores. It fails
// when a protein is both a co-target and a non-target.
func (p Problem) WireNonTargets() ([]int, error) {
	if len(p.CoTargetIDs) == 0 {
		return p.NonTargetIDs, nil
	}
	for _, t := range p.CoTargetIDs {
		for _, nt := range p.NonTargetIDs {
			if t == nt {
				return nil, fmt.Errorf("core: protein %d is both target and non-target", t)
			}
		}
	}
	return append(append([]int(nil), p.CoTargetIDs...), p.NonTargetIDs...), nil
}
