package verify

import (
	"fmt"
	"net"
	"net/http"
	"time"

	"dampi/internal/core"
	"dampi/internal/dcoord"
	"dampi/internal/jobqueue"
	"dampi/mpi"
)

// JobSpec is a self-contained verification job description: the workload
// name, its parameters, and the exploration knobs. Submitted over REST (or
// Submit), announced to workers, and hashed for dedup.
type JobSpec = dcoord.JobSpec

// Job is one persisted job of a verification service.
type Job = jobqueue.Job

// JobReport is a persisted job outcome.
type JobReport = jobqueue.JobReport

// QueueConfig configures a verification service: a persistent job queue
// (REST API + dashboard) draining onto a long-lived dcoord worker pool.
type QueueConfig struct {
	// WorkerAddr is the cluster listen address workers (dampid) dial.
	WorkerAddr string
	// APIAddr is the HTTP listen address for the REST API and dashboard.
	// Empty disables the built-in HTTP server (use Handler with your own).
	APIAddr string
	// StoreDir is the persistence root: WAL, snapshots, checkpoints and
	// reports live under it, and a restarted service resumes from it.
	StoreDir string
	// Validate, if non-nil, vets specs at submission (the CLI installs the
	// workload-registry check).
	Validate func(spec JobSpec) error
	// LeaseTTL is the pool's lease TTL and CheckpointEvery each job's
	// checkpoint cadence (defaults as in ClusterConfig and Config).
	LeaseTTL        time.Duration
	CheckpointEvery int
	// OnEvent, if non-nil, receives service lifecycle lines for logging.
	OnEvent func(string)
}

// QueueServer is a running verification service.
type QueueServer struct {
	svc      *jobqueue.Service
	store    *jobqueue.Store
	handler  http.Handler
	workerLn net.Listener
	apiLn    net.Listener
	httpSrv  *http.Server
	runDone  chan struct{}
}

// ServeQueue starts a verification service: it opens (or resumes) the job
// store at cfg.StoreDir, listens for workers on cfg.WorkerAddr, serves the
// REST API and dashboard on cfg.APIAddr, and drains the queue until Stop.
// Jobs interrupted by a previous crash are re-queued and resume from their
// frontier checkpoints.
func ServeQueue(cfg QueueConfig) (*QueueServer, error) {
	if cfg.StoreDir == "" {
		return nil, fmt.Errorf("verify: ServeQueue requires StoreDir")
	}
	if cfg.WorkerAddr == "" {
		return nil, fmt.Errorf("verify: ServeQueue requires WorkerAddr")
	}
	store, err := jobqueue.OpenStore(jobqueue.StoreConfig{Dir: cfg.StoreDir})
	if err != nil {
		return nil, err
	}
	server := dcoord.NewServer(dcoord.ServerConfig{
		LeaseTTL:        cfg.LeaseTTL,
		CheckpointEvery: cfg.CheckpointEvery,
		OnEvent:         cfg.OnEvent,
	})
	svc, err := jobqueue.NewService(jobqueue.ServiceConfig{
		Store:    store,
		Server:   server,
		Validate: cfg.Validate,
		OnEvent:  cfg.OnEvent,
	})
	if err != nil {
		store.Close()
		return nil, err
	}
	q := &QueueServer{svc: svc, store: store, handler: jobqueue.NewAPI(svc), runDone: make(chan struct{})}
	q.workerLn, err = server.ListenAndServe(cfg.WorkerAddr)
	if err != nil {
		store.Close()
		return nil, err
	}
	if cfg.APIAddr != "" {
		q.apiLn, err = net.Listen("tcp", cfg.APIAddr)
		if err != nil {
			q.workerLn.Close()
			store.Close()
			return nil, err
		}
		q.httpSrv = &http.Server{Handler: q.handler}
		go func() { _ = q.httpSrv.Serve(q.apiLn) }()
	}
	go func() {
		defer close(q.runDone)
		svc.Run()
	}()
	return q, nil
}

// WorkerAddr returns the bound cluster listen address (useful with ":0").
func (q *QueueServer) WorkerAddr() net.Addr { return q.workerLn.Addr() }

// APIAddr returns the bound HTTP listen address, or nil when the built-in
// server is disabled.
func (q *QueueServer) APIAddr() net.Addr {
	if q.apiLn == nil {
		return nil
	}
	return q.apiLn.Addr()
}

// Handler returns the REST/dashboard handler, for embedding the service in
// an existing HTTP server instead of APIAddr.
func (q *QueueServer) Handler() http.Handler { return q.handler }

// Submit queues a job directly (the in-process equivalent of POST /jobs).
func (q *QueueServer) Submit(spec JobSpec, ttl time.Duration) (*Job, bool, error) {
	return q.svc.Submit(spec, ttl)
}

// Stop shuts down gracefully: the active job drains and is re-queued for
// the next start, the store snapshots, workers are told goodbye.
func (q *QueueServer) Stop() {
	if q.httpSrv != nil {
		_ = q.httpSrv.Close()
	}
	q.svc.Stop()
	<-q.runDone
}

// JoinQueue creates an any-workload worker for the verification service at
// cfg.Addr: instead of being pinned to one program, it builds the program
// for each announced job through factory. The exploration parameters come
// from each job's spec, so cfg only contributes the connection fields
// (Addr, Slots, WorkerName, OnEvent).
func JoinQueue(cfg ClusterConfig, factory func(spec JobSpec) (func(p *mpi.Proc) error, error)) (*Worker, error) {
	if factory == nil {
		return nil, fmt.Errorf("verify: JoinQueue requires a program factory")
	}
	w := dcoord.NewWorker(dcoord.WorkerConfig{
		Addr:    cfg.Addr,
		Name:    cfg.WorkerName,
		Slots:   cfg.Slots,
		OnEvent: cfg.OnEvent,
		Factory: func(spec dcoord.JobSpec) (core.ExplorerConfig, error) {
			program, err := factory(spec)
			if err != nil {
				return core.ExplorerConfig{}, err
			}
			ecfg := spec.ExplorerConfig()
			ecfg.Program = program
			return ecfg, nil
		},
	})
	return &Worker{w: w}, nil
}
