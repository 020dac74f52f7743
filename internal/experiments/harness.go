package experiments

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"time"

	"interpose/internal/apps"
	"interpose/internal/world"
)

// The measurement policies of the registry. Every repeated row of every
// table is timed by one of these helpers, so a row's statistic is named
// by the helper it goes through: interleavedMean (mean of interleaved
// rounds), bestOf (fastest round), or Measure (calibrated loop, for
// single calls too short to time one at a time).

// errRuns rejects a repetition count that would time nothing.
var errRuns = errors.New("runs must be at least 1")

// interleavedMean times work once per row, round-robin over the rows for
// runs rounds after one discarded warm-up round (as the paper discards an
// initial run), with a GC before each timed call, and returns each row's
// mean. Interleaving spreads process-wide drift — allocator growth,
// scheduler warm-up — evenly instead of penalizing whichever row went
// first.
func interleavedMean(runs int, rows []string, work func(row string) (time.Duration, error)) ([]BenchEntry, error) {
	if runs < 1 {
		return nil, errRuns
	}
	for _, r := range rows {
		if _, err := work(r); err != nil {
			return nil, fmt.Errorf("%s: %w", r, err)
		}
	}
	totals := make([]time.Duration, len(rows))
	for i := 0; i < runs; i++ {
		for j, r := range rows {
			runtime.GC()
			d, err := work(r)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", r, err)
			}
			totals[j] += d
		}
	}
	es := make([]BenchEntry, len(rows))
	for j, r := range rows {
		es[j] = entry(r, totals[j]/time.Duration(runs))
	}
	return es, nil
}

// bestOf runs round once as a discarded warm-up, then runs times with a
// GC before each, and returns the fastest round. The rows guarded this
// way are short daemon and world operations: a mean would let one
// collection pause or scheduler stall on a shared runner read as a
// regression, while the best round is the cost the code actually pays.
func bestOf(runs int, round func() (time.Duration, error)) (time.Duration, error) {
	if runs < 1 {
		return 0, errRuns
	}
	if _, err := round(); err != nil {
		return 0, err
	}
	var best time.Duration
	for r := 0; r < runs; r++ {
		runtime.GC()
		d, err := round()
		if err != nil {
			return 0, err
		}
		if r == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// perOp times n back-to-back calls of op and returns the mean per call.
func perOp(n int, op func() error) (time.Duration, error) {
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := op(); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / time.Duration(n), nil
}

// bootClose times n cold boots of the application world, each closed
// before the next, and returns the mean per world.
func bootClose(n int) (time.Duration, error) {
	return perOp(n, func() error {
		w, err := world.Boot(apps.Spec())
		if err != nil {
			return fmt.Errorf("boot: %w", err)
		}
		return w.Close()
	})
}

// printRows writes a name/value table, one line per row. suffix gives
// the text printed after a row's value, its unit and any remark; nil
// prints each row's unit.
func printRows(w io.Writer, title string, es []BenchEntry, suffix func(BenchEntry) string) {
	fmt.Fprintln(w, title)
	for _, e := range es {
		s := e.Unit
		if suffix != nil {
			s = suffix(e)
		}
		fmt.Fprintf(w, "  %-24s %10d%s\n", e.Row, e.NsPerOp, s)
	}
	fmt.Fprintln(w)
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	case d >= time.Microsecond:
		return fmt.Sprintf("%.2fµs", float64(d)/float64(time.Microsecond))
	default:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	}
}
