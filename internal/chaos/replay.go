package chaos

import (
	"fmt"
	"sort"

	"pvfscache/internal/cluster"
	"pvfscache/internal/workload"
)

// Replay re-executes a recorded chaos trace deterministically in-process:
// it verifies the trace's ops are exactly what its seed + scenario
// regenerate (so a trace file and a seed are interchangeable evidence),
// boots a fresh fault-free cluster, and drives Run's session through
// every record in the recorded global order on a single thread — same
// clients, same files, same offsets, same payloads (regenerated from the
// op parameters). The oracle judges every read and the final image; with
// no faults injected, an op may fail only where the recorded run's did,
// so any disagreement points at a real data-path bug rather than at
// scheduling.
func Replay(tr *workload.Trace, logf func(format string, args ...any)) error {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if err := tr.Verify(); err != nil {
		return fmt.Errorf("chaos: trace does not match its seed's scenario: %w", err)
	}
	spec, err := tr.Regenerate()
	if err != nil {
		return err
	}
	logf("chaos: replaying %s seed=%d: %d records, %d clients",
		tr.Scenario, tr.Params.Seed, len(tr.Records), len(spec.Ops))

	cl, err := cluster.Start(cluster.Config{
		IODs:        4,
		ClientNodes: spec.Params.Nodes,
		Caching:     true,
	})
	if err != nil {
		return err
	}
	defer cl.Close()
	s, err := newSession(cl, spec, tr.Params.Seed)
	if err != nil {
		return fmt.Errorf("chaos: replay setup: %w", err)
	}
	defer s.close()

	recs := make([]workload.Record, len(tr.Records))
	copy(recs, tr.Records)
	sort.Slice(recs, func(i, j int) bool { return recs[i].Seq < recs[j].Seq })
	for _, rec := range recs {
		if err := s.do(rec.Op); err != nil && rec.Err == "" {
			return fmt.Errorf("chaos: replay %v op %d failed where the recorded run did not: %w", rec.Kind, rec.Seq, err)
		}
	}
	if v := s.violations(); len(v) > 0 {
		return fmt.Errorf("chaos: replay diverged: %w", v[0])
	}
	if err := s.durable(nil); err != nil {
		return fmt.Errorf("chaos: replay durable image diverged: %w", err)
	}
	logf("chaos: replay of %d records completed byte-perfect", len(recs))
	return nil
}
