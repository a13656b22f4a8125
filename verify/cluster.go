package verify

import (
	"fmt"
	"net"
	"net/http"
	"time"

	"dampi/internal/dcoord"
	"dampi/internal/dexplore"
	"dampi/mpi"
)

// ClusterConfig configures one node of a distributed verification: either
// the coordinator (Serve) or a worker (Join). Both sides must be built from
// the same exploration parameters, workload name and workload parameters —
// each describes itself as a JobSpec and the join handshake refuses any
// mismatch, because a worker replaying a different program or a different
// interleaving space would silently corrupt the merged report.
type ClusterConfig struct {
	// Config carries the exploration parameters. On either side PruneHints
	// must be nil; coordinator-side, so must the fields that require running
	// the program locally — CheckLeaks, CollectStats, OnInterleaving and
	// Workers (replays happen on the workers).
	Config

	// Workload names the program both sides run; part of the spec the
	// handshake compares.
	Workload string

	// Addr is the coordinator's TCP address: the listen address for Serve
	// (":9477", "0.0.0.0:9477"), the dial address for Join.
	Addr string

	// LeaseTTL bounds how long a worker may hold a task without a heartbeat
	// before it is requeued (coordinator; default 10s).
	LeaseTTL time.Duration

	// Slots is the worker's concurrent replay slot count (default 1).
	Slots int
	// WorkerName identifies the worker in status output (default host:pid).
	WorkerName string
	// Scale and Iters are the workload parameters this node's program was
	// built with, part of the spec the handshake compares: a coordinator
	// (one-shot or job queue) gives a pinned worker only jobs whose parameters
	// match the worker's. 0 is unknown: it matches any job on a worker, and
	// means the defaults (100, 4) on a coordinator.
	Scale int
	Iters int
	// OnEvent, if non-nil, receives worker lifecycle lines for logging.
	OnEvent func(string)
}

// JobSpec describes this node's exploration as the one identity the cluster
// compares: what Serve announces to workers, what Join states in its
// handshake (and replays under), and what `dampi -submit` posts to a
// verification service. It refuses what no cluster node supports.
func (cfg *ClusterConfig) JobSpec() (JobSpec, error) {
	switch {
	case cfg.Workload == "":
		return JobSpec{}, fmt.Errorf("verify: distributed verification requires a Workload name")
	case cfg.PruneHints != nil:
		return JobSpec{}, fmt.Errorf("verify: PruneHints is unsupported distributed (static pruning is a local-engine feature: a job spec carries no hint table)")
	}
	ecfg, err := cfg.explorerConfig(nil)
	if err != nil {
		return JobSpec{}, err
	}
	spec := dcoord.FingerprintFor(cfg.Workload, &ecfg)
	spec.Scale, spec.Iters = cfg.Scale, cfg.Iters
	return spec, nil
}

// Coordinator is the coordinator side of a distributed verification. It owns
// the exploration frontier and the merged report; workers created with Join
// connect to it and replay leased subtrees.
type Coordinator struct {
	c   *dcoord.Coordinator
	ln  net.Listener
	cfg ClusterConfig
}

// Serve starts the coordinator of a distributed verification, listening on
// cfg.Addr. It returns as soon as the listener is up; Wait blocks until the
// exploration finishes and returns the merged result, which is identical to
// what a single-process Run over the same parameters would report.
func Serve(cfg ClusterConfig) (*Coordinator, error) {
	switch {
	case cfg.CheckLeaks:
		return nil, fmt.Errorf("verify: CheckLeaks is unsupported distributed (the canonical run happens on a worker); run the leak check locally")
	case cfg.CollectStats:
		return nil, fmt.Errorf("verify: CollectStats is unsupported distributed; collect statistics locally")
	case cfg.OnInterleaving != nil:
		return nil, fmt.Errorf("verify: OnInterleaving is unsupported distributed")
	case cfg.Workers != 0:
		return nil, fmt.Errorf("verify: Workers is meaningless on a coordinator; workers join with Join")
	}
	if cfg.Resume && cfg.CheckpointFile == "" {
		return nil, fmt.Errorf("verify: Resume requires CheckpointFile")
	}
	spec, err := cfg.JobSpec()
	if err != nil {
		return nil, err
	}
	dcfg := dcoord.Config{
		Fingerprint:     spec,
		LeaseTTL:        cfg.LeaseTTL,
		CheckpointPath:  cfg.CheckpointFile,
		CheckpointEvery: cfg.CheckpointEvery,
		OnProgress:      cfg.OnProgress,
		ProgressEvery:   cfg.ProgressEvery,
	}
	if cfg.Resume {
		ckp, err := dexplore.LoadCheckpoint(cfg.CheckpointFile)
		if err != nil {
			return nil, fmt.Errorf("verify: loading checkpoint: %w", err)
		}
		dcfg.Resume = ckp
	}
	c, err := dcoord.New(dcfg)
	if err != nil {
		return nil, err
	}
	ln, err := c.ListenAndServe(cfg.Addr)
	if err != nil {
		return nil, err
	}
	return &Coordinator{c: c, ln: ln, cfg: cfg}, nil
}

// Addr returns the coordinator's bound listen address (useful with ":0").
func (c *Coordinator) Addr() net.Addr { return c.ln.Addr() }

// Wait blocks until the exploration completes and returns the merged result.
func (c *Coordinator) Wait() (*Result, error) {
	rep, err := c.c.Wait()
	if err != nil {
		return nil, err
	}
	res := &Result{Report: rep}
	if c.cfg.ArtifactsDir != "" {
		if err := writeArtifacts(c.cfg.ArtifactsDir, res); err != nil {
			return nil, fmt.Errorf("verify: writing artifacts: %w", err)
		}
	}
	return res, nil
}

// Stop drains the cluster gracefully: no new tasks are leased, in-flight
// results are merged, a final checkpoint is written (if configured) and Wait
// returns the partial result. The SIGTERM path.
func (c *Coordinator) Stop() { c.c.Stop() }

// Status returns a live snapshot of the exploration.
func (c *Coordinator) Status() dcoord.Status { return c.c.Status() }

// StatusHandler returns the coordinator's HTTP observability surface:
// /status (JSON) and /metrics (Prometheus text).
func (c *Coordinator) StatusHandler() http.Handler { return c.c.StatusHandler() }

// Worker is the worker side of a distributed verification.
type Worker struct {
	w *dcoord.Worker
}

// Join creates a worker for the coordinator at cfg.Addr, replaying the given
// program. Run blocks until the exploration is done (nil), the worker is
// stopped (nil), or the coordinator rejects or disappears (error). The
// program must be the same workload the coordinator serves — the handshake
// enforces the name, the workload parameters and every exploration parameter.
func Join(cfg ClusterConfig, program func(p *mpi.Proc) error) (*Worker, error) {
	if program == nil {
		return nil, fmt.Errorf("verify: nil program")
	}
	spec, err := cfg.JobSpec()
	if err != nil {
		return nil, err
	}
	ecfg := spec.ExplorerConfig()
	ecfg.Program = program
	w := dcoord.NewWorker(dcoord.WorkerConfig{
		Addr:        cfg.Addr,
		Name:        cfg.WorkerName,
		Slots:       cfg.Slots,
		Fingerprint: spec,
		Explorer:    ecfg,
		OnEvent:     cfg.OnEvent,
	})
	return &Worker{w: w}, nil
}

// Run joins the coordinator and replays tasks until done or stopped.
func (w *Worker) Run() error { return w.w.Run() }

// Stop drains gracefully: in-flight replays finish and deliver their
// results, then Run returns. The SIGTERM path.
func (w *Worker) Stop() { w.w.Stop() }
