package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"

	maimon "repro"
	"repro/internal/info"
	"repro/internal/wire"
)

// outcome is what one mine produced, reduced to the sets every surface
// (CLI stdout, job-result JSON, the Session API) can be reduced to: the
// MVD count, the MVD strings where the surface lists them, and the scheme
// strings. All three render through the same Format(names), so equal
// sets mean equal mined output regardless of the surface's ordering.
type outcome struct {
	NumMVDs int
	MVDs    []string // sorted; nil when the surface prints only the count
	Schemes []string // sorted; nil in mvds mode
}

// digest hashes the outcome; withMVDs=false drops the MVD strings, for
// comparing against a surface (CLI schemes mode) that prints the count only.
func (o outcome) digest(withMVDs bool) string {
	h := sha256.New()
	fmt.Fprintf(h, "mvds %d\n", o.NumMVDs)
	if withMVDs {
		for _, m := range o.MVDs {
			fmt.Fprintf(h, "m %s\n", m)
		}
	}
	for _, s := range o.Schemes {
		fmt.Fprintf(h, "s %s\n", s)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// outcomeOf renders what a Session mine returned.
func outcomeOf(names []string, mode string, mvds []maimon.MVD, schemes []*maimon.Scheme) outcome {
	out := outcome{NumMVDs: len(mvds)}
	for _, phi := range mvds {
		out.MVDs = append(out.MVDs, phi.Format(names))
	}
	sort.Strings(out.MVDs)
	if mode != wire.ModeMVDs {
		for _, s := range schemes {
			out.Schemes = append(out.Schemes, s.Schema.Format(names))
		}
		sort.Strings(out.Schemes)
	}
	return out
}

// reference mines (mode, ε, maxSchemes) serially and checks the paper's
// guarantees on what came out before anything is compared against it:
// every mined MVD has J ≤ ε, every scheme is acyclic, and a scheme with m
// bags has J ≤ (m−1)·ε (its join tree has m−1 support MVDs, each ≤ ε).
//
// sess is a serial session (WithWorkers(1)) in a process of its own, so a
// reference shares no process, no flag parsing and no parallel schedule
// with the binary it judges.
func reference(ctx context.Context, sess *maimon.Session, mode string, eps float64, maxSchemes int) (outcome, error) {
	names := sess.Relation().Names()
	opts := []maimon.Option{maimon.WithEpsilon(eps), maimon.WithMaxSchemes(maxSchemes)}
	var (
		schemes []*maimon.Scheme
		res     *maimon.MVDResult
		err     error
	)
	if mode == wire.ModeMVDs {
		res, err = sess.MineMVDs(ctx, opts...)
	} else {
		schemes, res, err = sess.MineSchemes(ctx, opts...)
	}
	if err != nil {
		return outcome{}, fmt.Errorf("reference mine (ε=%g): %w", eps, err)
	}
	for _, phi := range res.MVDs {
		if j := sess.J(phi); !info.LeqEps(j, eps) {
			return outcome{}, fmt.Errorf("reference MVD %s has J=%g > ε=%g", phi.Format(names), j, eps)
		}
	}
	for _, s := range schemes {
		if !s.Schema.IsAcyclic() {
			return outcome{}, fmt.Errorf("reference scheme %s is cyclic", s.Schema.Format(names))
		}
		if limit := float64(s.M()-1) * eps; !info.LeqEps(s.J, limit) {
			return outcome{}, fmt.Errorf("reference scheme %s has J=%g > (m−1)·ε=%g", s.Schema.Format(names), s.J, limit)
		}
	}
	return outcomeOf(names, mode, res.MVDs, schemes), nil
}

var (
	schemesSummary = regexp.MustCompile(`^(\d+) schemes from (\d+) full MVDs`)
	mvdsSummary    = regexp.MustCompile(`^(\d+) full ε-MVDs`)
)

// parseCLIOutput reduces `maimon` stdout to an outcome. schemes mode
// prints a ranked table (schema text from the first '{') and a summary
// with both counts; mvds mode prints one padded "<mvd>  J=…" line per MVD
// and a count. A missing summary line means the run did not finish.
func parseCLIOutput(mode string, stdout []byte) (outcome, error) {
	var out outcome
	done := false
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch mode {
		case wire.ModeMVDs:
			if m := mvdsSummary.FindStringSubmatch(line); m != nil {
				out.NumMVDs, _ = strconv.Atoi(m[1])
				done = true
			} else if i := strings.LastIndex(line, " J="); i >= 0 && strings.Contains(line, " ->> ") {
				out.MVDs = append(out.MVDs, strings.TrimSpace(line[:i]))
			}
		default:
			if m := schemesSummary.FindStringSubmatch(line); m != nil {
				n, _ := strconv.Atoi(m[1])
				out.NumMVDs, _ = strconv.Atoi(m[2])
				if n != len(out.Schemes) {
					return outcome{}, fmt.Errorf("summary says %d schemes, table has %d", n, len(out.Schemes))
				}
				done = true
			} else if i := strings.IndexByte(line, '{'); i >= 0 {
				out.Schemes = append(out.Schemes, line[i:])
			}
		}
	}
	if !done {
		return outcome{}, fmt.Errorf("no summary line in %d bytes of output", len(stdout))
	}
	if mode == wire.ModeMVDs {
		if len(out.MVDs) != out.NumMVDs {
			return outcome{}, fmt.Errorf("summary says %d MVDs, %d listed", out.NumMVDs, len(out.MVDs))
		}
		sort.Strings(out.MVDs)
	} else {
		sort.Strings(out.Schemes)
	}
	return out, nil
}

// outcomeOfResult reduces a job result to its MVD and scheme sets.
func outcomeOfResult(res *wire.JobResult) outcome {
	out := outcome{NumMVDs: len(res.MVDs)}
	for _, m := range res.MVDs {
		out.MVDs = append(out.MVDs, m.MVD)
	}
	sort.Strings(out.MVDs)
	if res.Mode != wire.ModeMVDs {
		for _, s := range res.Schemes {
			out.Schemes = append(out.Schemes, s.Schema)
		}
		sort.Strings(out.Schemes)
	}
	return out
}

// checkAgainst compares a timed op's outcome with its reference on the
// projection the surface supports.
func checkAgainst(ref, got outcome) error {
	withMVDs := got.MVDs != nil
	if r, g := ref.digest(withMVDs), got.digest(withMVDs); r != g {
		return fmt.Errorf("output digest %s differs from reference %s (%d/%d MVDs, %d/%d schemes)",
			g, r, got.NumMVDs, ref.NumMVDs, len(got.Schemes), len(ref.Schemes))
	}
	return nil
}
