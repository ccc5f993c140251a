// Command srb-load is the open-loop production load harness (internal/load)
// as a CLI: it drives an srb-server with K concurrent waypoint-mobility
// sessions and a continuous-query mix, ramps the session count in stages
// until the declared latency SLO breaks, optionally SIGKILLs the server
// mid-run to measure the recovery-time objective, and writes the
// machine-readable capacity report (LOAD_*.json).
//
// Two modes:
//
//   - -server-bin <path>: spawn the server under test (with persistence,
//     leases and the admin endpoint enabled), which also unlocks the -rto
//     SIGKILL drill and the server-side /metrics scrape.
//   - -addr <host:port>: drive an externally managed server; -rto is
//     unavailable because the harness cannot kill what it does not own.
//
// Exit status 0 means the run completed and the report validated; the report
// itself says whether the server met the SLO.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"srb/internal/load"
)

func main() {
	var (
		addr        = flag.String("addr", "", "existing server address to drive (mutually exclusive with -server-bin)")
		serverBin   = flag.String("server-bin", "", "srb-server binary to spawn and control")
		sessions    = flag.Int("sessions", 64, "stage-1 mobile session count")
		stages      = flag.String("stages", "1,2,4", "comma-separated session multipliers, strictly increasing")
		stageDur    = flag.Duration("stage-dur", 10*time.Second, "duration of each ramp stage")
		tick        = flag.Duration("tick", 20*time.Millisecond, "per-session movement tick interval")
		reportEvery = flag.Duration("report-every", 100*time.Millisecond, "per-session forced update interval flooring the offered rate; 0 reports only on region exit")
		probeEvery  = flag.Duration("probe-every", 250*time.Millisecond, "probe round-trip sampling interval")
		speed       = flag.Float64("speed", 0.2, "mean waypoint speed per simulated time unit")
		period      = flag.Float64("period", 0.1, "mean constant-movement period")
		timescale   = flag.Float64("timescale", 2.5, "simulated time units per wall second")
		nRange      = flag.Int("range", 4, "continuous range queries")
		nCircle     = flag.Int("circle", 2, "continuous circle queries")
		nKNN        = flag.Int("knn", 2, "continuous kNN queries")
		nCount      = flag.Int("count", 1, "continuous COUNT queries")
		slo         = flag.Duration("slo", 50*time.Millisecond, "p99 latency objective for update acks and probe RTTs")
		rto         = flag.Bool("rto", false, "SIGKILL the server after the ramp and measure recovery (requires -server-bin)")
		rtoTimeout  = flag.Duration("rto-timeout", 30*time.Second, "recovery drill budget")
		seed        = flag.Int64("seed", 1, "workload seed: same seed, same offered workload")
		workers     = flag.Int("workers", 2, "spawned server's batch pipeline workers")
		lease       = flag.Duration("lease", 30*time.Second, "spawned server's session lease")
		out         = flag.String("out", "LOAD.json", "capacity report output path")
	)
	flag.Parse()
	if err := run(loadArgs{
		addr: *addr, serverBin: *serverBin, sessions: *sessions, stages: *stages,
		stageDur: *stageDur, tick: *tick, reportEvery: *reportEvery, probeEvery: *probeEvery,
		speed: *speed, period: *period, timescale: *timescale,
		nRange: *nRange, nCircle: *nCircle, nKNN: *nKNN, nCount: *nCount,
		slo: *slo, rto: *rto, rtoTimeout: *rtoTimeout, seed: *seed,
		workers: *workers, lease: *lease, out: *out,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "srb-load: FAIL: %v\n", err)
		os.Exit(1)
	}
}

// loadArgs carries the parsed flags into run, keeping main testably thin.
type loadArgs struct {
	addr, serverBin, stages, out       string
	sessions, nRange, nCircle, nKNN    int
	nCount, workers                    int
	stageDur, tick, reportEvery        time.Duration
	probeEvery, slo, rtoTimeout, lease time.Duration
	speed, period, timescale           float64
	seed                               int64
	rto                                bool
}

func run(a loadArgs) error {
	mults, err := parseStages(a.stages)
	if err != nil {
		return err
	}
	if (a.addr == "") == (a.serverBin == "") {
		return fmt.Errorf("exactly one of -addr and -server-bin is required")
	}
	if a.rto && a.serverBin == "" {
		return fmt.Errorf("-rto requires -server-bin (cannot SIGKILL an external server)")
	}

	cfg := load.Config{
		Addr:             a.addr,
		Seed:             a.seed,
		Sessions:         a.sessions,
		StageMultipliers: mults,
		StageDuration:    a.stageDur,
		TickEvery:        a.tick,
		ReportEvery:      a.reportEvery,
		ProbeEvery:       a.probeEvery,
		MeanSpeed:        a.speed,
		MeanPeriod:       a.period,
		Timescale:        a.timescale,
		RangeQueries:     a.nRange,
		CircleQueries:    a.nCircle,
		KNNQueries:       a.nKNN,
		CountQueries:     a.nCount,
		SLOP99:           a.slo,
		Logf: func(format string, args ...interface{}) {
			fmt.Printf(format+"\n", args...)
		},
	}

	if a.serverBin != "" {
		ctl, err := spawnServer(a.serverBin, a.workers, a.lease)
		if err != nil {
			return err
		}
		defer ctl.stop()
		cfg.Addr = ctl.addr
		cfg.MetricsURL = ctl.adminURL + "/metrics"
		cfg.FlightURL = ctl.adminURL + "/debug/flightrec"
		if a.rto {
			cfg.Recovery = &load.RecoveryConfig{Control: ctl, Timeout: a.rtoTimeout}
		}
	}

	report, err := load.Run(cfg)
	if err != nil {
		return err
	}
	if err := report.Validate(); err != nil {
		return fmt.Errorf("invalid capacity report: %w", err)
	}
	if err := report.WriteFile(a.out); err != nil {
		return fmt.Errorf("write report: %w", err)
	}
	fmt.Printf("srb-load: wrote %s\n", a.out)
	c := report.Capacity
	fmt.Printf("srb-load: capacity: %d sessions (%.1f/core over %d cores) at p99 <= %gms, saturated=%v\n",
		c.MaxSessionsAtSLO, c.SessionsPerCore, report.Cores, c.SLOP99Seconds*1e3, c.Saturated)
	if report.Recovery.Performed {
		fmt.Printf("srb-load: recovery: RTO %.3fs, SLO restored %.3fs after SIGKILL\n",
			report.Recovery.RTOSeconds, report.Recovery.SLORestoreSeconds)
	}
	if report.Flight.Checked {
		fmt.Printf("srb-load: worst-tail trace %#x (stage %d) resolved to %d flight events %v, complete=%v\n",
			report.Flight.Trace, report.Flight.Stage+1, report.Flight.Events,
			report.Flight.Kinds, report.Flight.Complete)
	}
	return nil
}

// parseStages parses the -stages multiplier list.
func parseStages(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("-stages: %q is not an integer", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// procControl owns a spawned srb-server process and implements
// load.ServerControl with a real SIGKILL and a -recover re-exec.
type procControl struct {
	bin        string
	addr       string
	adminAddr  string
	adminURL   string
	persistDir string
	workers    int
	lease      time.Duration
	cmd        *exec.Cmd
}

// spawnServer starts the server under test with persistence, leases and the
// admin endpoint on, and waits for the admin surface to come up.
func spawnServer(bin string, workers int, lease time.Duration) (*procControl, error) {
	srvPort, err := freePort()
	if err != nil {
		return nil, err
	}
	adminPort, err := freePort()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "srb-load-")
	if err != nil {
		return nil, err
	}
	ctl := &procControl{
		bin:        bin,
		addr:       "127.0.0.1:" + strconv.Itoa(srvPort),
		adminAddr:  "127.0.0.1:" + strconv.Itoa(adminPort),
		persistDir: dir,
		workers:    workers,
		lease:      lease,
	}
	ctl.adminURL = "http://" + ctl.adminAddr
	// The first life journals without snapshotting so a kill always leaves a
	// journal tail for -recover to replay.
	if err := ctl.start("-snapshot-every", "0"); err != nil {
		return nil, err
	}
	if err := waitAdmin(ctl.adminURL); err != nil {
		ctl.stop()
		return nil, err
	}
	return ctl, nil
}

// start launches one server life with the shared flag set plus extras.
func (c *procControl) start(extra ...string) error {
	args := append([]string{
		"-addr", c.addr, "-admin", c.adminAddr,
		"-workers", strconv.Itoa(c.workers),
		"-lease", c.lease.String(),
		"-persist", c.persistDir,
	}, extra...)
	cmd := exec.Command(c.bin, args...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start %s: %w", c.bin, err)
	}
	c.cmd = cmd
	return nil
}

// Kill implements load.ServerControl: SIGKILL, no goodbyes.
func (c *procControl) Kill() error {
	if c.cmd == nil || c.cmd.Process == nil {
		return fmt.Errorf("no server process to kill")
	}
	if err := c.cmd.Process.Kill(); err != nil {
		return err
	}
	_ = c.cmd.Wait() // reap; a kill-induced exit error is expected
	c.cmd = nil
	return nil
}

// Restart implements load.ServerControl: same ports, -recover replay, then
// periodic snapshots resume.
func (c *procControl) Restart() error {
	return c.start("-snapshot-every", "1s", "-recover")
}

// stop tears the server and its persist directory down at process exit.
func (c *procControl) stop() {
	if c.cmd != nil && c.cmd.Process != nil {
		_ = c.cmd.Process.Kill()
		_ = c.cmd.Wait()
		c.cmd = nil
	}
	_ = os.RemoveAll(c.persistDir)
}

// freePort asks the kernel for an unused TCP port. The port is released
// before the server claims it — a benign race for a harness run.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// waitAdmin polls the admin endpoint until it answers or the deadline hits.
func waitAdmin(adminURL string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(adminURL + "/stats")
		if err == nil {
			resp.Body.Close()
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("admin endpoint never came up: %v", err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}
