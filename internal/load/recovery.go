package load

import (
	"fmt"
	"time"
)

// recoveryDrill measures the recovery-time objective: kill the server with
// sessions live, restart it into journal recovery, and time (a) how long
// until the restarted event loop first answers — a probe round trip or a
// within-SLO update ack, whichever comes first — and (b) how long until the
// update path is back within the SLO. The fleet's
// auto-reconnecting sessions resume their leases throughout, so the drill
// exercises journal replay, lease resume, and region re-push together.
func (h *harness) recoveryDrill(rc *RecoveryConfig) (RecoveryReport, error) {
	cfg := h.cfg
	deadline := time.Now().Add(rc.Timeout)
	killAt := time.Now()
	cfg.Logf("load: recovery drill: killing server at t=%.2fs", killAt.Sub(h.epoch).Seconds())
	if err := rc.Control.Kill(); err != nil {
		return RecoveryReport{}, fmt.Errorf("load: kill server: %w", err)
	}
	if err := rc.Control.Restart(); err != nil {
		return RecoveryReport{}, fmt.Errorf("load: restart server: %w", err)
	}
	// Arm the SLO-restore watch only now: acks measured from here on are
	// against the recovered server, not frames in flight before the kill.
	h.watch.arm(cfg.SLOP99.Seconds())

	recoveredAt, err := h.waitServerReady(deadline)
	if err != nil {
		return RecoveryReport{}, err
	}
	cfg.Logf("load: recovery drill: probe succeeded %.3fs after kill", recoveredAt.Sub(killAt).Seconds())

	var restoredAt time.Time
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	select {
	case restoredAt = <-h.watch.ch:
	case <-timer.C:
		return RecoveryReport{}, fmt.Errorf("load: no update ack within the %s SLO observed %s after the kill",
			cfg.SLOP99, rc.Timeout)
	case <-h.done:
		return RecoveryReport{}, fmt.Errorf("load: harness shut down during the recovery drill")
	}
	cfg.Logf("load: recovery drill: SLO restored %.3fs after kill", restoredAt.Sub(killAt).Seconds())
	// Sessions may get an ack from the recovered life while the paced probe
	// loop is still dialling; that ack proves the event loop up just as well.
	if restoredAt.Before(recoveredAt) {
		recoveredAt = restoredAt
	}

	return RecoveryReport{
		Performed:            true,
		KillAtSeconds:        killAt.Sub(h.epoch).Seconds(),
		RecoveredAtSeconds:   recoveredAt.Sub(h.epoch).Seconds(),
		SLORestoredAtSeconds: restoredAt.Sub(h.epoch).Seconds(),
		RTOSeconds:           recoveredAt.Sub(killAt).Seconds(),
		SLORestoreSeconds:    restoredAt.Sub(killAt).Seconds(),
	}, nil
}

// waitServerReady polls the restarted server with short probe round trips —
// a fresh dial plus a COUNT registration — until one completes, proving the
// listener is up AND the event loop is processing (journal replay done).
func (h *harness) waitServerReady(deadline time.Time) (time.Time, error) {
	p := newProber(h, probeIDBase+500_000, 500*time.Millisecond, 1<<45)
	defer p.close()
	for time.Now().Before(deadline) {
		select {
		case <-h.done:
			return time.Time{}, fmt.Errorf("load: harness shut down during the recovery drill")
		default:
		}
		if _, err := p.once(); err == nil {
			return time.Now(), nil
		}
		time.Sleep(25 * time.Millisecond)
	}
	return time.Time{}, fmt.Errorf("load: server did not answer a probe round trip within the drill timeout")
}
