package chaos

import (
	"flag"
	"strings"
	"testing"

	"pvfscache/internal/cluster"
	"pvfscache/internal/pvfs"
	"pvfscache/internal/testseed"
	"pvfscache/internal/workload"
)

// -trace replays a saved chaos trace file: the reproduction path a
// failing run prints (`go test ./internal/chaos -run TestChaosReplay
// -trace=<path>`).
var traceFlag = flag.String("trace", "", "chaos trace file to replay")

// TestChaosReplay replays a trace deterministically in-process. With
// -trace it replays that file; without it, it self-tests the loop by
// recording a faulted run of each listed scenario and replaying its trace.
func TestChaosReplay(t *testing.T) {
	if *traceFlag != "" {
		tr, err := workload.Load(*traceFlag)
		if err != nil {
			t.Fatalf("loading %s: %v", *traceFlag, err)
		}
		if err := Replay(tr, t.Logf); err != nil {
			t.Fatalf("replay: %v", err)
		}
		return
	}
	// prodcons replays shared data hand-offs; metadata replays create,
	// unlink and list.
	for _, sc := range []string{"prodcons", "metadata"} {
		t.Run(sc, func(t *testing.T) {
			res, err := Run(RunConfig{
				Scenario: sc,
				Fault:    "connkill",
				Seed:     testseed.Base(t),
				Params:   cellParams(t),
				TraceDir: t.TempDir(),
				Log:      t.Logf,
			})
			if err != nil {
				t.Fatalf("recording run: %v", err)
			}
			if res.TracePath == "" {
				t.Fatal("run saved no trace despite TraceDir")
			}
			tr, err := workload.Load(res.TracePath)
			if err != nil {
				t.Fatalf("loading recorded trace: %v", err)
			}
			if len(tr.Records) != res.Ops {
				t.Fatalf("trace has %d records, run reported %d ops", len(tr.Records), res.Ops)
			}
			if err := Replay(tr, t.Logf); err != nil {
				t.Fatalf("replay of recorded run: %v", err)
			}
		})
	}
}

// TestForcedFailureReplaysFromTrace is the acceptance check for the
// failure loop: corrupt durable bytes behind the oracle's back so the
// run provably fails, then verify the failure (a) prints seed + trace +
// reproduction command, (b) saved a trace whose op sequence regenerates
// bit-for-bit from the seed, and (c) replays cleanly — the op sequence
// was sound; the corruption, not the workload, was the failure.
func TestForcedFailureReplaysFromTrace(t *testing.T) {
	seed := testseed.Base(t)
	res, err := Run(RunConfig{
		Scenario: "sequential",
		Fault:    "partition",
		Seed:     seed,
		Params:   cellParams(t),
		TraceDir: t.TempDir(),
		Log:      t.Logf,
		Meddle: func(c *cluster.Cluster) {
			// Flip durable bytes out-of-band: XOR guarantees every byte
			// differs from whatever the oracle expects there.
			direct, err := pvfs.NewClient(pvfs.Config{
				Network: c.Network, MgrAddr: c.MgrAddr, IODAddrs: c.IODDataAddrs,
			})
			if err != nil {
				t.Fatalf("meddler client: %v", err)
			}
			defer direct.Close()
			f, err := direct.Open("wl/seq.dat")
			if err != nil {
				t.Fatalf("meddler open: %v", err)
			}
			buf := make([]byte, 4096)
			if _, err := f.ReadAt(buf, 0); err != nil {
				t.Fatalf("meddler read: %v", err)
			}
			for i := range buf {
				buf[i] ^= 0x5A
			}
			if _, err := f.WriteAt(buf, 0); err != nil {
				t.Fatalf("meddler write: %v", err)
			}
		},
	})
	if err == nil {
		t.Fatal("corrupted run passed the oracle")
	}
	if !strings.Contains(err.Error(), "durable byte") {
		t.Fatalf("failure is not the injected corruption: %v", err)
	}
	if !strings.Contains(err.Error(), "TestChaosReplay") || !strings.Contains(err.Error(), "-trace=") {
		t.Fatalf("failure does not print the reproduction command: %v", err)
	}
	if res == nil || res.TracePath == "" {
		t.Fatal("failed run saved no trace")
	}
	tr, err := workload.Load(res.TracePath)
	if err != nil {
		t.Fatalf("loading failure trace: %v", err)
	}
	if tr.Params.Seed != seed {
		t.Fatalf("trace carries seed %d, run used %d", tr.Params.Seed, seed)
	}
	// Same op sequence from printed seed + trace: Verify regenerates the
	// scenario from the seed and matches it record for record.
	if err := tr.Verify(); err != nil {
		t.Fatalf("trace diverges from its seed's op sequence: %v", err)
	}
	if err := Replay(tr, t.Logf); err != nil {
		t.Fatalf("clean replay of the failed run's op sequence: %v", err)
	}
}
