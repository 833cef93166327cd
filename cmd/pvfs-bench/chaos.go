package main

import (
	"flag"
	"log"
	"os"
	"time"

	"pvfscache/internal/chaos"
	"pvfscache/internal/workload"
)

// The -chaos mode's flags select and size a chaos run. The workload seed
// comes from the shared -seed flag; everything is deterministic given that
// seed, and a failing run prints the seed plus a saved trace and the
// `go test` command that replays it.
var (
	chaosMode = flag.Bool("chaos", false, "run a seeded chaos scenario instead of the micro-benchmark")
	scenario  = flag.String("scenario", "sequential", "chaos workload scenario: sequential, strided, zipfian, prodcons, or metadata")
	fault     = flag.String("fault", "connkill", "chaos fault: none, connkill, crash, partition, brownout, restart (needs -backend disk, implied), drain, or a membership fault — killpeer, join (imply -gc; gc-safe scenarios only)")
	chaosGC   = flag.Bool("gc", false, "run the cooperative global cache in mgr-joined mode (gc-safe scenarios only; membership faults imply it)")
	chaosTCP  = flag.Bool("tcp", false, "run the chaos cluster over loopback TCP instead of the in-memory fabric")
	clients   = flag.Int("clients", 8, "chaos client processes")
	nodes     = flag.Int("nodes", 2, "chaos client nodes (clients are spread across them)")
	ops       = flag.Int("ops", 120, "chaos operations per client")
	fileSize  = flag.Int64("filesize", 1<<20, "chaos workload file size in bytes")
	maxIO     = flag.Int64("maxio", 16<<10, "chaos maximum request size in bytes")
	traceDir  = flag.String("tracedir", "", "always save the op trace here (failures save one regardless)")
)

// runChaos boots a fault-injected cluster, drives the scenario under the
// consistency oracle, and reports the verdict. Exit status 1 means the
// oracle rejected the run.
func runChaos() {
	if _, err := workload.Lookup(*scenario); err != nil {
		log.Fatal(err)
	}
	log.Printf("chaos: %s/%s seed=%d clients=%d nodes=%d ops=%d tcp=%v",
		*scenario, *fault, *seed, *clients, *nodes, *ops, *chaosTCP)
	res, err := chaos.Run(chaos.RunConfig{
		Scenario: *scenario,
		Fault:    *fault,
		Seed:     *seed,
		Params: workload.Params{
			Clients:      *clients,
			Nodes:        *nodes,
			OpsPerClient: *ops,
			FileSize:     *fileSize,
			MaxIO:        *maxIO,
		},
		GlobalCache: *chaosGC,
		TCP:         *chaosTCP,
		Backend:     *backend,
		DataDir:     *dataDir,
		TraceDir:    *traceDir,
		Log:         log.Printf,
	})
	if err != nil {
		log.Printf("FAIL: %v", err)
		os.Exit(1)
	}
	faultWindow := "fault never engaged"
	if res.FaultStart > 0 {
		faultWindow = (time.Duration(res.FaultEnd - res.FaultStart)).String() + " under fault"
	}
	log.Printf("PASS: %d ops, %d op errors (all within the fault window), %d unresolved writes, %s, %v total",
		res.Ops, res.OpErrors, res.DoubtWrites, faultWindow, res.Elapsed)
	if res.TracePath != "" {
		log.Printf("trace: %s", res.TracePath)
	}
}
