package experiments

import (
	"errors"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// ErrRefused reports that the server's accept queue was full — the
// client's connection attempt was dropped, as TCP does under SYN overload.
var ErrRefused = errors.New("experiments: connection refused (accept backlog full)")

// Demand is what one request costs the serving node.
type Demand struct {
	// CPUSeconds is CPU demand charged to the server machine.
	CPUSeconds float64
	// WorkerHoldSeconds is non-CPU time spent inside the worker (blocking
	// I/O of a forked provider script, for example): it occupies a
	// worker-pool slot without loading the CPU.
	WorkerHoldSeconds float64
	// PostHoldSeconds is protocol pipeline latency paid after the worker
	// is released (asynchronous result assembly): it delays the response
	// without occupying a worker or the CPU.
	PostHoldSeconds float64
	// RequestBytes and ResponseBytes cross the network between client
	// and server.
	RequestBytes  float64
	ResponseBytes float64
}

// ServerConfig shapes a server's concurrency behavior.
type ServerConfig struct {
	// Workers is the size of the worker/thread pool (slapd threads,
	// servlet container threads, forked condor children).
	Workers int
	// Backlog is how many connections beyond the workers may wait in the
	// accept queue before new attempts are refused.
	Backlog int
	// SetupRTTs is the number of network round trips to establish a
	// connection and deliver the request (TCP handshake + protocol).
	SetupRTTs float64
	// PerRequestCPU is fixed CPU overhead per request (accept, parse),
	// added to every Demand.
	PerRequestCPU float64
	// WorkerHeldDuringSend keeps the worker occupied while the response
	// is transmitted (thread-per-connection servers). Event-driven
	// servers release the worker first.
	WorkerHeldDuringSend bool
	// PostHoldRampConns, when positive, scales each request's
	// PostHoldSeconds by min(1, openConnections/PostHoldRampConns): the
	// protocol pipeline latency only develops fully under concurrency
	// (slapd's stable multi-second response time appears at ~50
	// concurrent users in the paper, not at 1).
	PostHoldRampConns int
}

// Server is a network service process deployed on a simulated machine:
// an accept backlog, a worker (thread) pool, per-request CPU demand charged
// to the machine, and request/response transfers over the shared network.
// These are the mechanisms behind every threshold the paper observes —
// caching differences show up as CPU demand, "the network on the server
// side can no longer handle the traffic" shows up as NIC sharing, and
// post-threshold load collapse shows up as connection refusal plus client
// backoff.
type Server struct {
	Machine *cluster.Machine
	Net     *cluster.Network
	Config  ServerConfig

	slots   *sim.Resource // accept queue: workers + backlog
	workers *sim.Resource
	open    int // established connections (admission through response)

	// Counters for assertions and reporting.
	Served  int
	Refused int
}

// NewServer deploys a server on a machine.
func NewServer(env *sim.Env, m *cluster.Machine, net *cluster.Network, cfg ServerConfig) *Server {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.Backlog < 0 {
		cfg.Backlog = 0
	}
	return &Server{
		Machine: m,
		Net:     net,
		Config:  cfg,
		slots:   sim.NewResource(env, cfg.Workers+cfg.Backlog),
		workers: sim.NewResource(env, cfg.Workers),
	}
}

// Call performs one client request from machine `from`, blocking p for
// the full exchange: admission, connection setup, request transfer,
// queueing for a worker, service (CPU + hold), and response transfer. It
// returns ErrRefused without consuming server resources when the accept
// queue is full. The accept-queue slot is released once a worker has
// handled the request — an established connection awaiting its response
// no longer occupies the kernel's pending-accept backlog.
func (s *Server) Call(p *sim.Proc, from *cluster.Machine, d Demand) error {
	if !s.slots.TryAcquire() {
		s.Refused++
		// The client's SYN is dropped; it learns by timeout, not by RST.
		// The caller pays its own backoff; here we charge one RTT probe.
		p.Sleep(s.Net.RTT(from, s.Machine))
		return ErrRefused
	}
	s.open++

	if rtts := s.Config.SetupRTTs; rtts > 0 {
		p.Sleep(rtts * s.Net.RTT(from, s.Machine))
	}
	s.Net.Transfer(p, from, s.Machine, d.RequestBytes)

	s.workers.Acquire(p)
	s.Machine.Compute(p, s.Config.PerRequestCPU+d.CPUSeconds)
	if d.WorkerHoldSeconds > 0 {
		p.Sleep(d.WorkerHoldSeconds)
	}
	if s.Config.WorkerHeldDuringSend {
		s.Net.Transfer(p, s.Machine, from, d.ResponseBytes)
		s.workers.Release()
		s.slots.Release()
	} else {
		s.workers.Release()
		s.slots.Release()
		s.Net.Transfer(p, s.Machine, from, d.ResponseBytes)
	}
	if hold := s.postHold(d); hold > 0 {
		p.Sleep(hold)
	}
	s.open--
	s.Served++
	return nil
}

// postHold applies the concurrency ramp to the demand's pipeline latency.
func (s *Server) postHold(d Demand) float64 {
	if d.PostHoldSeconds <= 0 {
		return 0
	}
	if s.Config.PostHoldRampConns <= 0 {
		return d.PostHoldSeconds
	}
	frac := float64(s.open) / float64(s.Config.PostHoldRampConns)
	if frac > 1 {
		frac = 1
	}
	return d.PostHoldSeconds * frac
}
