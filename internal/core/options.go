// Package core implements Maimon's two mining phases (paper Secs. 6-7):
//
//   - Phase 1, MVDMiner (Fig. 3): for every attribute pair (A,B), enumerate
//     the minimal A,B-separators (MineMinSeps, Fig. 5, via incremental
//     minimal-transversal generation) and, for each, the full ε-MVDs with
//     that key (getFullMVDs, Figs. 6/16/17). The union is Mε (Eq. 11).
//   - Phase 2, ASMiner (Fig. 8): enumerate maximal sets of pairwise-
//     compatible MVDs (Def. 7.1) as maximal independent sets of the
//     incompatibility graph, and synthesize one acyclic schema per set
//     with BuildAcyclicSchema (Fig. 9).
package core

// Options configures a mining run.
type Options struct {
	// Epsilon is the approximation threshold ε ≥ 0 on the J-measure
	// (bits). ε = 0 mines exact MVDs and schemas.
	Epsilon float64

	// PairwiseConsistency enables the getFullMVDsOpt pruning of App. 12.3:
	// candidates are repaired by force-merging dependent pairs Ci,Cj with
	// I(Ci;Cj|S) > ε before being explored. On by default (DefaultOptions);
	// the ablation bench turns it off.
	PairwiseConsistency bool

	// Progress, when non-nil, receives structured progress events from
	// the mining loops (see Progress for the emission points). The
	// callback runs synchronously on the mining goroutine.
	Progress func(Progress)

	// Workers is the fan-out of the parallel mining pipeline. MineMVDs
	// and MineMinSepsAll distribute attribute pairs across a bounded pool
	// of worker miners over the shared oracle (the paper's Fig. 3 loop is
	// embarrassingly parallel), and EnumerateSchemes lets that many
	// goroutines claim rows of the incompatibility graph and write them
	// in place. <= 1 means serial, the default. Pair results are merged
	// back in canonical pair order and the graph's edges do not depend on
	// which goroutine wrote a row, so results are identical to a serial
	// run on the same inputs. The session's WithWorkers sets this field
	// and, with the same value, the fan-out of scheme ranking
	// (decompose.AnalyzeAll).
	Workers int
}

// DefaultOptions returns the configuration matching the paper's system:
// pruning on.
func DefaultOptions(epsilon float64) Options {
	return Options{
		Epsilon:             epsilon,
		PairwiseConsistency: true,
	}
}
