package main

import (
	"crypto/tls"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"prio"
	"prio/internal/core"
	"prio/internal/dp"
	"prio/internal/field"
	"prio/internal/ingest"
	"prio/internal/sealbox"
	"prio/internal/telemetry"
	"prio/internal/transport"
	"prio/internal/window"
)

// servers is the roster size: one leader and two followers.
const servers = 3

// deployment is a three-member Prio roster hosted in this process and wired
// with the constructors and default settings prio-server uses: sealed
// submissions, self-signed TLS on 127.0.0.1, streamed verification rounds,
// the sharded pipeline, and stream ingest with dynamic credits. Every layer
// is reached through a wrapped entry point, so the tracer sees each call.
type deployment struct {
	servers  []*prio.Server
	lns      []*transport.Server
	peers    []*tracedPeer // the leader's peers, by member
	pipeline *prio.Pipeline
	ingest   *ingest.Server
	sink     *tracedSink
	windows  []*window.Service[field.F64, uint64]
	leaderWS *window.Service[field.F64, uint64]
	reg      *telemetry.Registry
	addr     string      // the leader's ingest address
	dialTLS  *tls.Config // what a client dials the leader with

	mu      sync.Mutex
	records []window.Record // published windows, in order
}

// deploy brings up the roster for w. keys are the members' sealbox keys, so
// a pool built before the roster existed is sealed to it. ckptDir, used only
// by windowed workloads, receives one checkpoint directory per member.
func deploy(w workload, keys []*sealbox.PrivateKey, tr *tracer, ckptDir string) (d *deployment, err error) {
	pro, err := prio.NewProtocol(prio.Config{Scheme: w.newScheme(), Servers: servers, Mode: prio.ModePrio, Seal: true})
	if err != nil {
		return nil, err
	}
	d = &deployment{reg: telemetry.New()}
	defer func() {
		if err != nil {
			d.Close()
			d = nil
		}
	}()
	addrs := make([]string, servers)
	for i := 0; i < servers; i++ {
		srv, err := core.NewServer[field.F64, uint64](pro, i, keys[i])
		if err != nil {
			return nil, err
		}
		d.servers = append(d.servers, srv)
		// Followers window their shares and checkpoint before they serve,
		// as prio-server's follower path does.
		if i != 0 {
			if err := d.startWindow(w, i, nil, nil, ckptDir); err != nil {
				return nil, err
			}
		}
		serverTLS, err := transport.LoadServerTLS("", "", "127.0.0.1")
		if err != nil {
			return nil, err
		}
		ln, err := transport.Listen("127.0.0.1:0", serverTLS, tr.handler(i, srv.Handle))
		if err != nil {
			return nil, err
		}
		d.lns = append(d.lns, ln)
		addrs[i] = ln.Addr().String()
	}
	d.addr = addrs[0]
	if d.dialTLS, err = transport.ClientTLS(""); err != nil {
		return nil, err
	}

	peers := make([]transport.Peer, servers)
	for i := range peers {
		var p transport.Peer
		if i == 0 {
			p = &transport.LoopbackPeer{Handler: tr.handler(0, d.servers[0].Handle)}
		} else {
			p = transport.NewStreamPeer(addrs[i], d.dialTLS)
		}
		tp := &tracedPeer{Peer: p, member: i, tr: tr}
		d.peers = append(d.peers, tp)
		peers[i] = tp
	}
	leader, err := core.NewLeader(d.servers[0], peers)
	if err != nil {
		return nil, err
	}
	// prio-server's defaults: one shard per CPU, batches of 16.
	d.pipeline, err = prio.NewPipeline(leader, prio.PipelineConfig{MaxBatch: 16, Registry: d.reg})
	if err != nil {
		return nil, err
	}
	if err := d.startWindow(w, 0, leader, tr.quiesce(d.pipeline.Quiesce), ckptDir); err != nil {
		return nil, err
	}
	d.sink = &tracedSink{sink: d.pipeline, tr: tr}
	d.ingest = ingest.NewServer(d.sink, ingest.Config{
		Credits:        ingest.DefaultCredits,
		QueueDepth:     ingest.DefaultQueueDepth,
		DynamicCredits: true,
		Registry:       d.reg,
	})
	d.lns[0].OnStream(d.ingest.Handler())
	return d, nil
}

// startWindow starts member i's window service when w is windowed: ε-DP
// noise on every seal and a durable checkpoint directory per member.
// leader and quiesce are set on the publishing member only.
func (d *deployment) startWindow(w workload, i int, leader *prio.Leader, quiesce func(func()), ckptDir string) error {
	if w.window == 0 {
		return nil
	}
	store, err := window.NewStore(filepath.Join(ckptDir, fmt.Sprintf("member%d", i)))
	if err != nil {
		return err
	}
	cfg := window.Config[field.F64, uint64]{
		Field:    prio.DefaultField(),
		Width:    w.window,
		Server:   d.servers[i],
		Leader:   leader,
		Quiesce:  quiesce,
		Store:    store,
		DP:       dp.Params{Epsilon: w.epsilon, Sensitivity: w.sensitivity},
		Registry: d.reg,
	}
	if leader != nil {
		cfg.OnPublish = func(r window.Record) {
			d.mu.Lock()
			d.records = append(d.records, r)
			d.mu.Unlock()
		}
	}
	svc, err := window.New(cfg)
	if err != nil {
		return err
	}
	svc.Start()
	d.windows = append(d.windows, svc)
	if leader != nil {
		d.leaderWS = svc
	}
	return nil
}

// published returns the windows published so far.
func (d *deployment) published() []window.Record {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]window.Record(nil), d.records...)
}

// awaitPublished waits until every window up to and including the one open
// at t has been published, so the window counts cover every accepted
// submission decided before t. Every closed window publishes, empty or not.
func (d *deployment) awaitPublished(t time.Time, timeout time.Duration) error {
	want := window.ID(t, d.leaderWS.Width())
	deadline := time.Now().Add(timeout)
	for {
		recs := d.published()
		if len(recs) > 0 && recs[len(recs)-1].ID >= want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("window %d not published within %v", want, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// peerStats sums the traffic counters of the leader's follower peers.
func (d *deployment) peerStats() transport.Stats {
	var out transport.Stats
	for _, p := range d.peers[1:] {
		s := p.Stats().Snapshot()
		out.BytesSent += s.BytesSent
		out.BytesRecv += s.BytesRecv
		out.MsgsSent += s.MsgsSent
		out.MsgsRecv += s.MsgsRecv
	}
	return out
}

// Close tears the roster down: intake first, then the windows (each writes a
// final checkpoint), the pipeline, the peers, and the listeners.
func (d *deployment) Close() error {
	var errs []error
	if d.ingest != nil {
		d.ingest.Close()
	}
	for _, svc := range d.windows {
		svc.Close()
	}
	if d.pipeline != nil {
		if err := d.pipeline.Close(); err != nil {
			errs = append(errs, fmt.Errorf("closing pipeline: %w", err))
		}
	}
	for _, p := range d.peers {
		p.Close()
	}
	for _, ln := range d.lns {
		ln.Close()
	}
	return errors.Join(errs...)
}

// newKeys generates the members' sealbox keys.
func newKeys() ([]*sealbox.PublicKey, []*sealbox.PrivateKey, error) {
	pubs := make([]*sealbox.PublicKey, servers)
	privs := make([]*sealbox.PrivateKey, servers)
	for i := range privs {
		pub, priv, err := sealbox.GenerateKey()
		if err != nil {
			return nil, nil, err
		}
		pubs[i], privs[i] = pub, priv
	}
	return pubs, privs, nil
}

// scratchDir makes a fresh directory under the working directory's build
// area, which is the only place the benchmark writes.
func scratchDir() (string, error) {
	base := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "perfbench-")
}
