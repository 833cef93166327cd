// Command pvfs-iod runs one I/O daemon over TCP on one address, which
// serves read/write/sync-write traffic and the cache modules'
// write-behind flushes alike.
//
//	pvfs-iod -id 0 -data :7010
//
// Run one instance per storage node, then list every daemon's address
// (in -id order) on the clients.
package main

import (
	"flag"
	"log"

	"pvfscache/internal/admin"
	"pvfscache/internal/iod"
	"pvfscache/internal/metrics"
	"pvfscache/internal/transport"
)

func main() {
	log.SetFlags(log.LstdFlags)
	log.SetPrefix("pvfs-iod: ")
	var (
		id        = flag.Int("id", 0, "daemon index in the cluster iod list")
		dataAddr  = flag.String("data", ":7010", "listen address")
		blockSize = flag.Int("block", 4096, "cache block size used for the coherence directory")
		adminAddr = flag.String("admin", "", "admin HTTP listen address (metrics, pprof); empty disables")
	)
	flag.Parse()

	net := transport.NewTCP()
	dl, err := net.Listen(*dataAddr)
	if err != nil {
		log.Fatalf("listen data %s: %v", *dataAddr, err)
	}
	log.Printf("iod %d: serving on %s", *id, dl.Addr())

	reg := metrics.NewRegistry()
	if *adminAddr != "" {
		a, err := admin.Start(*adminAddr, admin.Config{Registry: reg})
		if err != nil {
			log.Fatalf("admin: %v", err)
		}
		defer a.Close()
		log.Printf("iod %d: admin on http://%s/metrics", *id, a.Addr())
	}

	srv := iod.New(*id, *blockSize, net, reg)
	if err := srv.ServeData(dl); err != nil {
		log.Fatalf("serve: %v", err)
	}
}
