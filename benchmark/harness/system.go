package harness

import (
	"fmt"
	"net"
	"os"
	"sync/atomic"
	"time"

	"pstore/internal/b2w"
	"pstore/internal/cluster"
	"pstore/internal/engine"
	"pstore/internal/migration"
	"pstore/internal/server"
)

// System is one assembled deployment: cluster → server → loopback listener
// → clients, built from the same public constructors cmd/pstore-server
// uses.
type System struct {
	Cluster *cluster.Cluster
	Server  *server.Server
	Clients []*server.Client
	Wire    *wireCounter // nil unless the run is traced

	clusterCfg cluster.Config
}

// wireCounter counts the server side's socket traffic. It is installed
// through Server.WrapConns on traced runs only.
type wireCounter struct {
	reads, writes, bytes atomic.Int64
}

type countingConn struct {
	net.Conn
	w *wireCounter
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.w.reads.Add(1)
	c.w.bytes.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.w.writes.Add(1)
	c.w.bytes.Add(int64(n))
	return n, err
}

// newRegistry returns the B2W stored procedures.
func newRegistry() *engine.Registry {
	reg := engine.NewRegistry()
	b2w.Register(reg)
	return reg
}

// Assemble starts a cluster from cfg, loads it with preload, and puts the
// TCP front end and conns clients on it. On error nothing is left running.
func Assemble(cfg cluster.Config, mig migration.Options, conns int, traced bool, preload func(*cluster.Cluster) error) (*System, error) {
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	s := &System{Cluster: c, clusterCfg: cfg}
	if err := preload(c); err != nil {
		s.Close()
		return nil, fmt.Errorf("harness: preload: %w", err)
	}
	if cfg.DataDir != "" {
		// Bulk loading bypasses the command log; checkpoint so the preload
		// survives the crash the audit stages.
		if err := c.SnapshotAll(); err != nil {
			s.Close()
			return nil, fmt.Errorf("harness: preload snapshot: %w", err)
		}
	}
	if cfg.ReplicationFactor > 0 {
		if err := c.WaitReplicasCaughtUp(30 * time.Second); err != nil {
			s.Close()
			return nil, err
		}
	}
	if err := s.serve(mig, conns, traced); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// serve starts the TCP front end and dials the clients.
func (s *System) serve(mig migration.Options, conns int, traced bool) error {
	s.Server = server.New(s.Cluster, mig, nil)
	if traced {
		s.Wire = &wireCounter{}
		s.Server.WrapConns(func(c net.Conn) net.Conn { return countingConn{Conn: c, w: s.Wire} })
	}
	addr, err := s.Server.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	for i := 0; i < conns; i++ {
		cl, err := server.Dial(addr)
		if err != nil {
			return err
		}
		s.Clients = append(s.Clients, cl)
	}
	return nil
}

// closeFrontEnd stops clients and listener, leaving the cluster running.
func (s *System) closeFrontEnd() {
	for _, cl := range s.Clients {
		cl.Close()
	}
	s.Clients = nil
	if s.Server != nil {
		s.Server.Close()
		s.Server = nil
	}
}

// Close tears the deployment down. A durable cluster is crashed rather than
// stopped: its data directory is about to be deleted, so the final snapshot
// a graceful Stop writes would be wasted work.
func (s *System) Close() {
	s.closeFrontEnd()
	if s.Cluster == nil {
		return
	}
	if s.clusterCfg.DataDir != "" {
		s.Cluster.Crash()
	} else {
		s.Cluster.Stop()
	}
	s.Cluster = nil
}

// CrashAndReopen kills the cluster the way a process death would — no final
// snapshot, unflushed log bytes discarded — and recovers a new one from the
// same data directory. It returns the time recovery took.
func (s *System) CrashAndReopen() (time.Duration, error) {
	s.closeFrontEnd()
	s.Cluster.Crash()
	start := time.Now()
	c, err := cluster.New(s.clusterCfg)
	if err != nil {
		s.Cluster = nil
		return 0, fmt.Errorf("harness: reopening after crash: %w", err)
	}
	took := time.Since(start)
	s.Cluster = c
	if !c.Recovered() {
		return took, fmt.Errorf("harness: cluster did not recover from %s", s.clusterCfg.DataDir)
	}
	return took, nil
}

// claimDataDir reserves a fresh data directory. A directory left by an
// earlier run is never reused: recovering from it silently would measure
// somebody else's database.
func claimDataDir(dir string) error {
	if _, err := os.Stat(dir); err == nil {
		return fmt.Errorf("harness: data dir %s from a previous run is still present; remove it and rerun", dir)
	} else if !os.IsNotExist(err) {
		return err
	}
	return os.MkdirAll(dir, 0o755)
}
