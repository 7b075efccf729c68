// Command nsqld is the NonStop SQL daemon: it boots a simulated Tandem
// network, serves its message network over TCP, and registers the
// "$SQL" statement endpoint. Clients connect with nsqlsh -connect or
// the nsqlclient pool, hold pipelined request/reply conversations, and
// execute autocommit SQL. The operator's commands (nsqlsh's \crash,
// \restart and \reset) are refused unless nsqld runs with -admin.
//
// SIGTERM or SIGINT triggers a graceful drain: the listener closes, new
// request frames are refused, in-flight requests get their replies
// (bounded by -drain-timeout), then the network shuts down with trails
// flushed.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"nonstopsql"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:1988", "TCP listen address (use :0 for an ephemeral port)")
	nodes := flag.Int("nodes", 1, "nodes in the network")
	volumes := flag.Int("volumes", 4, "data volumes per node")
	parallel := flag.Int("parallel", 0, "default scan DOP across partitions (0 = sequential)")
	workers := flag.Int("workers", 8, "concurrent remote statements ($SQL session pool size)")
	replyTimeout := flag.Duration("reply-timeout", 30*time.Second, "server-side bound per dispatched request (0 = none)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "how long shutdown waits for in-flight requests (0 = forever)")
	admin := flag.Bool("admin", false, "serve the operator's commands to clients: crash and restart a volume, reset the counters")
	flag.Parse()

	db, err := nonstopsql.Open(nonstopsql.Config{
		Nodes:            *nodes,
		VolumesPerNode:   *volumes,
		ScanParallel:     *parallel,
		Listen:           *listen,
		ServeWorkers:     *workers,
		WireReplyTimeout: *replyTimeout,
		AdminOps:         *admin,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "nsqld: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("nsqld: serving %d node(s), volumes %v on %s\n", *nodes, db.Volumes(), db.Addr())

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	sig := <-sigc
	fmt.Printf("nsqld: %v — draining\n", sig)
	if err := db.Drain(*drainTimeout); err != nil {
		fmt.Fprintf(os.Stderr, "nsqld: %v\n", err)
	}
	ws := db.WireStats()
	db.Close()
	fmt.Printf("nsqld: served %d frames (%d KB in, %d KB out) over %d connection(s), %d rejected during drain\n",
		ws.Frames(), ws.BytesIn/1024, ws.BytesOut/1024, ws.Conns, ws.Rejected)
}
