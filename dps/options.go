package dps

import (
	"fmt"
	"time"

	"repro/internal/core"
)

// Option configures an application at construction time.
type Option func(*config) error

type config struct {
	nodes  []string
	engine core.Config
}

func buildConfig(opts []Option) (*config, error) {
	cfg := &config{}
	for _, opt := range opts {
		if err := opt(cfg); err != nil {
			return nil, err
		}
	}
	if cfg.engine.SuspectGrace > 0 && cfg.engine.Checkpoint == 0 {
		return nil, fmt.Errorf("dps: WithSuspectGrace requires WithCheckpoint (there is no failure detector to grace without the recovery layer)")
	}
	return cfg, nil
}

func (c *config) nodeNames() []string {
	if len(c.nodes) == 0 {
		return []string{"node0"}
	}
	return c.nodes
}

// WithNodes names the application's virtual cluster nodes, in attachment
// order (the first named node is the master node).
func WithNodes(names ...string) Option {
	return func(c *config) error {
		if len(names) == 0 {
			return fmt.Errorf("dps: WithNodes needs at least one node name")
		}
		c.nodes = append([]string(nil), names...)
		return nil
	}
}

// WithWindow bounds the number of tokens in circulation per split–merge
// pair (the paper's flow-control feedback): a split or stream blocks on its
// next post while n of its tokens are unacknowledged. Zero keeps the engine
// default.
func WithWindow(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("dps: negative flow-control window %d", n)
		}
		c.engine.Window = n
		return nil
	}
}

// WithMaxInFlightCalls bounds the graph calls admitted concurrently across
// the application. Beyond the budget, Call/CallAsync shed at admission with
// an error wrapping ErrOverload instead of queueing without bound — the
// caller backs off and retries. Zero admits without bound.
func WithMaxInFlightCalls(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("dps: negative in-flight call budget %d", n)
		}
		c.engine.MaxInFlightCalls = n
		return nil
	}
}

// WithCheckpoint enables the fault-tolerance layer and sets the interval
// at which thread instances checkpoint their state. With it on, every
// token is sequenced and retained by its sender until a checkpoint of its
// destination makes it durable; a node declared dead (FailNode, transport
// send errors, kernel heartbeats) has its threads restored from their
// newest checkpoints on the surviving nodes, retained in-flight tokens are
// replayed, and receivers drop re-delivered duplicates — executing calls
// complete with exactly-once semantics.
//
// Checkpointable state follows the live-migration rule: stateless, or a
// registered fully-exported struct. Operations must be deterministic
// functions of (state, input) for re-execution to converge, and collector
// stages (merges, streams) should be placed on the master node, whose
// death is unrecoverable (it hosts calls, the checkpoint store and the
// recovery coordinator). Zero disables the layer entirely — the token hot
// paths and wire formats are then untouched.
func WithCheckpoint(interval time.Duration) Option {
	return func(c *config) error {
		if interval < 0 {
			return fmt.Errorf("dps: negative checkpoint interval %v", interval)
		}
		c.engine.Checkpoint = interval
		return nil
	}
}

// WithSuspectGrace sets the detector's suspect→confirm grace window: a
// failing transport send is retried with capped exponential backoff and
// jitter for up to this window before the destination may be declared
// dead. Transient faults — a peer process restarting, a refused dial, a
// partition that heals — are absorbed by the retries and never trigger a
// failover; a real crash exhausts the window and recovers as usual, delayed
// by at most the grace.
// Requires WithCheckpoint (without the recovery layer there is no detector
// to grace). Zero keeps the immediate-suspect behaviour.
func WithSuspectGrace(window time.Duration) Option {
	return func(c *config) error {
		if window < 0 {
			return fmt.Errorf("dps: negative suspect grace %v", window)
		}
		c.engine.SuspectGrace = window
		return nil
	}
}

// WithBatch does nothing: every token and result an execution sends is
// corked, so a split's burst already leaves in one socket write per
// destination, and the batch frames this option used to turn on are gone.
//
// Deprecated: it is kept only until the benchmark's batched-ring workload,
// which names it, is retired.
func WithBatch(maxBytes, maxTokens int, delay time.Duration) Option {
	return func(*config) error { return nil }
}

// WithTraceSampling enables per-token distributed tracing for the given
// fraction of graph calls (0 traces nothing, 1 traces every call). A
// sampled call's trace ID (its call ID) rides its envelopes across splits,
// merges, node boundaries, migrations and failover replays; each node
// buffers the spans it observes (App.TraceSpans assembles the timeline).
// Unsampled calls pay one predicted branch per potential span site and
// allocate nothing; with rate zero the wire format is byte-identical to an
// untraced engine.
func WithTraceSampling(rate float64) Option {
	return func(c *config) error {
		if rate < 0 || rate > 1 {
			return fmt.Errorf("dps: trace sampling rate %v outside [0, 1]", rate)
		}
		c.engine.TraceSample = rate
		return nil
	}
}

// WithForceSerialize marshals and unmarshals tokens even for same-node
// transfers, exercising the full networking path inside one process — the
// paper's several-kernels-per-host debugging mode.
func WithForceSerialize(on bool) Option {
	return func(c *config) error {
		c.engine.ForceSerialize = on
		return nil
	}
}

// WithRegistry selects the token type registry; the process-wide default
// registry is used otherwise.
func WithRegistry(r *Registry) Option {
	return func(c *config) error {
		c.engine.Registry = r
		return nil
	}
}
