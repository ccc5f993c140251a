// Command srb-server runs a standalone safe-region monitoring server (the
// database server of Figure 1.1) on a TCP port, speaking the line-JSON wire
// protocol of package wire. Mobile clients (e.g. cmd/srb-client) connect to
// report locations; application servers register continuous range and kNN
// queries and receive result pushes.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"srb/internal/chaos"
	"srb/internal/core"
	"srb/internal/geom"
	"srb/internal/obs"
	"srb/internal/remote"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:7777", "listen address")
		gridM       = flag.Int("grid", 50, "query index grid resolution M")
		maxSpeed    = flag.Float64("maxspeed", 0, "max object speed; >0 enables the reachability circle (§6.1)")
		steadiness  = flag.Float64("steadiness", 0, "steady-movement parameter D in [0,1] (§6.2)")
		neighbor    = flag.Int("cellneighborhood", 0, "adaptive safe-region cell radius (§7.4 extension)")
		workers     = flag.Int("workers", 0, "batch update pipeline worker count; 0 disables batching")
		admin       = flag.String("admin", "", "optional HTTP admin address (/stats, /snapshot, /svg, /metrics, /trace, /queries, /debug/flightrec, /debug/pprof)")
		obsOn       = flag.Bool("obs", true, "attach metrics and tracing when -admin is set")
		traceBuf    = flag.Int("tracebuf", obs.DefaultTraceDepth, "decision-trace ring size (events retained for /trace)")
		chaosSpec   = flag.String("chaos", "", "fault-injection spec applied to every connection, e.g. drop=0.01,dup=0.005,delay=5ms,delayrate=0.1,sever=0.001,seed=7")
		lease       = flag.Duration("lease", 0, "session lease: how long a disconnected client's object survives for resume; 0 removes it immediately")
		persistDir  = flag.String("persist", "", "directory for the crash-recovery snapshot + journal; empty disables persistence")
		snapEvery   = flag.Duration("snapshot-every", 30*time.Second, "periodic snapshot interval when -persist is set; 0 journals without snapshotting")
		recoverFlag = flag.Bool("recover", false, "replay the -persist directory's snapshot + journal before serving")
		flightSize  = flag.Int("flightrec", obs.DefaultFlightDepth, "flight-recorder ring size (recent causal events kept for post-mortem dumps); <0 disables")
		flightDir   = flag.String("flightrec-dir", "", "directory for flight-recorder dump files; default is the -persist directory, else the working directory")
		sloBreach   = flag.Duration("slo", 0, "event-loop latency SLO; an op over it dumps the flight recorder (0 disables the trigger)")
		slowOp      = flag.Duration("slowop", 0, "slow-op threshold: monitor operations at or over it are appended to -slowop-log as NDJSON (0 disables; needs -obs)")
		slowOpLog   = flag.String("slowop-log", "", "slow-op log path, appended to; default stderr when -slowop is set")
	)
	flag.Parse()

	s, err := remote.NewServer(*addr, core.Options{
		Space:            geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1},
		GridM:            *gridM,
		MaxSpeed:         *maxSpeed,
		Steadiness:       *steadiness,
		CellNeighborhood: *neighbor,
	})
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	if *admin != "" && *obsOn {
		reg := obs.NewRegistry()
		reg.PublishExpvar("srb")
		s.SetObs(obs.NewSink(reg, obs.NewTracer(*traceBuf)))
	}
	if *slowOp > 0 {
		w := io.Writer(os.Stderr)
		if *slowOpLog != "" {
			f, err := os.OpenFile(*slowOpLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				log.Fatalf("-slowop-log: %v", err)
			}
			defer f.Close()
			w = f
		}
		s.SetSlowOpLog(*slowOp, w)
	}
	// The flight recorder is on by default: a bounded ring of recent causal
	// events dumped on SLO breach, reconnect storm, or SIGQUIT.
	var flight *obs.FlightRecorder
	if *flightSize >= 0 {
		dir := *flightDir
		if dir == "" {
			dir = *persistDir // "" falls back to the working directory
		}
		flight = obs.NewFlightRecorder(*flightSize, dir)
		flight.SetLogf(log.Printf)
		defer flight.Close()
		s.SetFlightRecorder(flight)
		s.SetSLO(*sloBreach)
	}
	s.SetWorkers(*workers)
	s.SetLease(*lease)
	if *chaosSpec != "" {
		cfg, err := chaos.ParseSpec(*chaosSpec)
		if err != nil {
			log.Fatalf("-chaos: %v", err)
		}
		s.SetChaos(chaos.NewInjector(cfg, cfg))
		fmt.Printf("chaos enabled: %s\n", *chaosSpec)
	}
	if *recoverFlag {
		if *persistDir == "" {
			log.Fatal("-recover requires -persist")
		}
		rs, err := s.Recover(*persistDir)
		if err != nil {
			log.Fatalf("recover: %v", err)
		}
		fmt.Printf("recovered from %s: %d journal entries replayed (last seq %d)\n", *persistDir, rs.Entries, rs.LastSeq)
	}
	if *persistDir != "" {
		if err := s.SetPersist(*persistDir, *snapEvery); err != nil {
			log.Fatalf("persist: %v", err)
		}
		fmt.Printf("persisting to %s (snapshot every %s)\n", *persistDir, *snapEvery)
	}
	fmt.Printf("srb-server listening on %s (M=%d, maxspeed=%g, D=%g, workers=%d, lease=%s)\n",
		s.Addr(), *gridM, *maxSpeed, *steadiness, *workers, *lease)
	if *admin != "" {
		go func() {
			defer func() {
				if r := recover(); r != nil {
					log.Printf("admin server panicked: %v", r)
				}
			}()
			fmt.Printf("admin endpoint on http://%s/stats\n", *admin)
			if err := http.ListenAndServe(*admin, s.AdminHandler()); err != nil {
				log.Printf("admin server: %v", err)
			}
		}()
	}

	go func() { //lint:allow goroleak signal handler: exits on interrupt, lives for the process otherwise
		defer func() {
			if r := recover(); r != nil {
				log.Printf("signal handler panicked: %v", r)
			}
		}()
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt)
		// SIGQUIT dumps the flight recorder and keeps serving: the black-box
		// read-out for a live server that is misbehaving but not dead.
		quit := make(chan os.Signal, 1)
		signal.Notify(quit, syscall.SIGQUIT)
		for {
			select {
			case <-quit:
				if path, err := flight.DumpFile("sigquit"); err != nil {
					log.Printf("flightrec: sigquit dump: %v", err)
				} else {
					fmt.Printf("flightrec: dumped %s (sigquit)\n", path)
				}
				continue
			case <-ch:
			}
			break
		}
		fmt.Println("shutting down")
		if err := s.Close(); err != nil {
			log.Printf("close: %v", err)
		}
	}()
	if err := s.Serve(); err != nil {
		log.Printf("server stopped: %v", err)
	}
}
