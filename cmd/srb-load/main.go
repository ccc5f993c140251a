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
//     SIGKILL drill and the evidence the report gathers from the server's
//     admin endpoint (load.Config.AdminURL).
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
	"slices"
	"strconv"
	"strings"
	"time"

	"srb/internal/load"
)

func main() {
	cfg := load.Config{Logf: func(format string, args ...interface{}) {
		fmt.Printf(format+"\n", args...)
	}}
	var sp spawnFlags
	flag.StringVar(&cfg.Addr, "addr", "", "existing server address to drive (mutually exclusive with -server-bin)")
	flag.StringVar(&sp.bin, "server-bin", "", "srb-server binary to spawn and control")
	flag.IntVar(&cfg.Sessions, "sessions", 64, "stage-1 mobile session count")
	stages := flag.String("stages", "1,2,4", "comma-separated session multipliers, strictly increasing")
	flag.DurationVar(&cfg.StageDuration, "stage-dur", 10*time.Second, "duration of each ramp stage")
	flag.DurationVar(&cfg.TickEvery, "tick", 20*time.Millisecond, "per-session movement tick interval")
	flag.DurationVar(&cfg.ReportEvery, "report-every", 100*time.Millisecond, "per-session forced update interval flooring the offered rate; 0 reports only on region exit")
	flag.DurationVar(&cfg.ProbeEvery, "probe-every", 250*time.Millisecond, "probe round-trip sampling interval")
	flag.Float64Var(&cfg.MeanSpeed, "speed", 0.2, "mean waypoint speed per simulated time unit")
	flag.Float64Var(&cfg.MeanPeriod, "period", 0.1, "mean constant-movement period")
	flag.Float64Var(&cfg.Timescale, "timescale", 2.5, "simulated time units per wall second")
	flag.IntVar(&cfg.RangeQueries, "range", 4, "continuous range queries")
	flag.IntVar(&cfg.CircleQueries, "circle", 2, "continuous circle queries")
	flag.IntVar(&cfg.KNNQueries, "knn", 2, "continuous kNN queries")
	flag.IntVar(&cfg.CountQueries, "count", 1, "continuous COUNT queries")
	flag.DurationVar(&cfg.SLOP99, "slo", 50*time.Millisecond, "p99 latency objective for update acks and probe RTTs")
	flag.BoolVar(&sp.rto, "rto", false, "SIGKILL the server after the ramp and measure recovery (requires -server-bin)")
	flag.DurationVar(&sp.rtoTimeout, "rto-timeout", 30*time.Second, "recovery drill budget")
	flag.Int64Var(&cfg.Seed, "seed", 1, "workload seed: same seed, same offered workload")
	flag.IntVar(&sp.workers, "workers", 2, "spawned server's batch pipeline workers")
	flag.DurationVar(&sp.lease, "lease", 30*time.Second, "spawned server's session lease")
	out := flag.String("out", "LOAD.json", "capacity report output path")
	flag.Parse()
	if err := run(cfg, *stages, *out, sp); err != nil {
		fmt.Fprintf(os.Stderr, "srb-load: FAIL: %v\n", err)
		os.Exit(1)
	}
}

// spawnFlags are the flags that shape a spawned server and its drill.
type spawnFlags struct {
	bin        string
	workers    int
	lease      time.Duration
	rto        bool
	rtoTimeout time.Duration
}

func run(cfg load.Config, stages, out string, sp spawnFlags) error {
	var err error
	if cfg.StageMultipliers, err = parseStages(stages); err != nil {
		return err
	}
	if (cfg.Addr == "") == (sp.bin == "") {
		return fmt.Errorf("exactly one of -addr and -server-bin is required")
	}
	if sp.rto && sp.bin == "" {
		return fmt.Errorf("-rto requires -server-bin (cannot SIGKILL an external server)")
	}
	if sp.bin != "" {
		ctl, err := spawnServer(sp.bin, sp.workers, sp.lease)
		if err != nil {
			return err
		}
		defer ctl.stop()
		cfg.Addr = ctl.addr
		cfg.AdminURL = ctl.adminURL
		if sp.rto {
			cfg.Recovery = &load.RecoveryConfig{Control: ctl, Timeout: sp.rtoTimeout}
		}
	}

	report, err := load.Run(cfg)
	if err != nil {
		return err
	}
	if err := report.Validate(); err != nil {
		return fmt.Errorf("invalid capacity report: %w", err)
	}
	// Validate holds each life to the pipeline the first one ran; the spawner
	// also knows which one it asked for.
	if sp.bin != "" && sp.workers > 0 && !report.Server.StatsBatch {
		return fmt.Errorf("spawned server runs no batch pipeline: asked for -workers %d, /stats has no batch section", sp.workers)
	}
	if err := report.WriteFile(out); err != nil {
		return fmt.Errorf("write report: %w", err)
	}
	fmt.Printf("srb-load: wrote %s\n", out)
	c := report.Capacity
	fmt.Printf("srb-load: capacity: %d sessions (%.1f/core over %d cores) at p99 <= %gms, saturated=%v\n",
		c.MaxSessionsAtSLO, c.SessionsPerCore, report.Cores, c.SLOP99Seconds*1e3, c.Saturated)
	if report.Recovery.Performed {
		fmt.Printf("srb-load: recovery: RTO %.3fs, SLO restored %.3fs after SIGKILL\n",
			report.Recovery.RTOSeconds, report.Recovery.SLORestoreSeconds)
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
	args       []string // the flags every server life shares
	addr       string
	adminURL   string
	persistDir string
	cmd        *exec.Cmd
}

// spawnServer starts the server under test with persistence, leases and the
// admin endpoint on, and waits for the admin surface to come up.
func spawnServer(bin string, workers int, lease time.Duration) (*procControl, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	adminAddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "srb-load-")
	if err != nil {
		return nil, err
	}
	ctl := &procControl{
		bin: bin, addr: addr, adminURL: "http://" + adminAddr, persistDir: dir,
		args: []string{"-addr", addr, "-admin", adminAddr, "-workers", strconv.Itoa(workers),
			"-lease", lease.String(), "-persist", dir},
	}
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
	cmd := exec.Command(c.bin, slices.Concat(c.args, extra)...)
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

// stop tears the server, if still running, and its persist directory down
// at process exit.
func (c *procControl) stop() {
	_ = c.Kill()
	_ = os.RemoveAll(c.persistDir)
}

// freeAddr asks the kernel for an unused loopback TCP address. The port is
// released before the server claims it — a benign race for a harness run.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
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
