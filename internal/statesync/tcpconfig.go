package statesync

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"time"
)

// BackoffConfig shapes the edge's reconnect schedule: attempt n waits
// Min·Multiplierⁿ (capped at Max), scaled by a uniform random factor in
// [1−Jitter, 1+Jitter] so a fleet of edges does not reconnect in
// lockstep after a shared outage.
type BackoffConfig struct {
	// Min is the delay before the first reconnect attempt.
	Min time.Duration
	// Max caps the exponential growth.
	Max time.Duration
	// Multiplier is the per-attempt growth factor (≥ 1).
	Multiplier float64
	// Jitter is the randomization fraction in [0, 1).
	Jitter float64
}

// Delay returns the wait before reconnect attempt n (0-based). rng may
// be nil for an unjittered schedule.
func (b BackoffConfig) Delay(attempt int, rng *rand.Rand) time.Duration {
	d := float64(b.Min) * math.Pow(b.Multiplier, float64(attempt))
	if d > float64(b.Max) {
		d = float64(b.Max)
	}
	if b.Jitter > 0 && rng != nil {
		d *= 1 + b.Jitter*(2*rng.Float64()-1)
	}
	if d < 0 {
		d = 0
	}
	return time.Duration(d)
}

// TCPConfig tunes the real-network transport's fault tolerance. The
// zero value of DialTimeout, ReadTimeout, or Heartbeat disables that
// mechanism; DefaultTCPConfig returns the supervision-grade settings
// and WithDefaults fills zero fields from them.
type TCPConfig struct {
	// Interval is the fallback push period (required, > 0). Both ends
	// push on events: an edge its commits through TCPEdge.Do, at most
	// one push per min(edgePace, Interval) (20 ms), and the master a
	// commit through TCPMaster.Do or an edge delta it applied, at once.
	// The tick ships whatever no event did, such as state changed
	// outside Do.
	Interval time.Duration
	// DialTimeout bounds a dial plus handshake (0 = no bound).
	DialTimeout time.Duration
	// ReadTimeout declares a peer dead when no frame (state or
	// heartbeat) arrives within it (0 = never). Must exceed Heartbeat
	// when both are set.
	ReadTimeout time.Duration
	// Heartbeat is the period of keepalive frames, which keep an idle
	// connection inside the peer's ReadTimeout (0 = none).
	Heartbeat time.Duration
	// Backoff shapes the edge's reconnect schedule.
	Backoff BackoffConfig
	// MaxRetries bounds consecutive failed reconnect attempts before the
	// edge gives up (0 = retry forever).
	MaxRetries int
	// Dialer overrides the dial function — fault-injection tests plug
	// faultnet.Controller.Dialer in here. Nil dials plain TCP.
	Dialer func(addr string, timeout time.Duration) (net.Conn, error)
	// Seed makes the backoff jitter deterministic (0 is a valid seed).
	Seed int64

	// Compression enables flate (level 1) compression of this side's
	// outbound frames whose payload is at least 512 bytes, kept only
	// when smaller. Each sender decides for itself: a reader inflates
	// any frame flagged compressed, so the two sides need not agree.
	Compression bool
	// MaxBatchChanges caps the CRDT changes carried by one state frame;
	// a larger delta is chunked into several frames (0 = default 64).
	MaxBatchChanges int
}

// batchChanges resolves the effective per-frame change cap.
func (c TCPConfig) batchChanges() int {
	if c.MaxBatchChanges > 0 {
		return c.MaxBatchChanges
	}
	return 64
}

// DefaultTCPConfig returns the supervision-grade defaults at the given
// sync interval: bounded dials, 10 s heartbeats with a 3× read timeout,
// and unlimited jittered exponential reconnect.
func DefaultTCPConfig(interval time.Duration) TCPConfig {
	return TCPConfig{
		Interval:    interval,
		DialTimeout: 5 * time.Second,
		ReadTimeout: 30 * time.Second,
		Heartbeat:   10 * time.Second,
		Backoff: BackoffConfig{
			Min:        50 * time.Millisecond,
			Max:        5 * time.Second,
			Multiplier: 2,
			Jitter:     0.2,
		},
	}
}

// WithDefaults fills zero fields (except Interval) from
// DefaultTCPConfig — deployment layers use it so a partially-specified
// config still gets heartbeats and backoff.
func (c TCPConfig) WithDefaults() TCPConfig {
	def := DefaultTCPConfig(c.Interval)
	if c.DialTimeout == 0 {
		c.DialTimeout = def.DialTimeout
	}
	if c.ReadTimeout == 0 {
		c.ReadTimeout = def.ReadTimeout
	}
	if c.Heartbeat == 0 {
		c.Heartbeat = def.Heartbeat
	}
	if c.Backoff == (BackoffConfig{}) {
		c.Backoff = def.Backoff
	}
	return c
}

// Validate reports whether the configuration is usable.
func (c TCPConfig) Validate() error {
	if c.Interval <= 0 {
		return fmt.Errorf("statesync: interval must be positive, got %v", c.Interval)
	}
	if c.DialTimeout < 0 || c.ReadTimeout < 0 || c.Heartbeat < 0 {
		return fmt.Errorf("statesync: negative timeout (dial %v, read %v, heartbeat %v)",
			c.DialTimeout, c.ReadTimeout, c.Heartbeat)
	}
	if c.ReadTimeout > 0 && c.Heartbeat > 0 && c.ReadTimeout <= c.Heartbeat {
		return fmt.Errorf("statesync: read timeout %v must exceed heartbeat %v",
			c.ReadTimeout, c.Heartbeat)
	}
	if c.Backoff != (BackoffConfig{}) {
		if c.Backoff.Min <= 0 || c.Backoff.Max < c.Backoff.Min {
			return fmt.Errorf("statesync: backoff range [%v, %v] invalid", c.Backoff.Min, c.Backoff.Max)
		}
		if c.Backoff.Multiplier < 1 {
			return fmt.Errorf("statesync: backoff multiplier %v must be ≥ 1", c.Backoff.Multiplier)
		}
		if c.Backoff.Jitter < 0 || c.Backoff.Jitter >= 1 {
			return fmt.Errorf("statesync: backoff jitter %v outside [0, 1)", c.Backoff.Jitter)
		}
	}
	if c.MaxRetries < 0 {
		return fmt.Errorf("statesync: max retries %d negative", c.MaxRetries)
	}
	if c.MaxBatchChanges < 0 {
		return fmt.Errorf("statesync: max batch changes %d negative", c.MaxBatchChanges)
	}
	return nil
}

// dial resolves the configured dialer.
func (c TCPConfig) dial(addr string) (net.Conn, error) {
	if c.Dialer != nil {
		return c.Dialer(addr, c.DialTimeout)
	}
	if c.DialTimeout > 0 {
		return net.DialTimeout("tcp", addr, c.DialTimeout)
	}
	return net.Dial("tcp", addr)
}
