package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"prio"
	"prio/internal/core"
	"prio/internal/ingest"
	"prio/internal/sealbox"
)

// workload is one traffic mix driven at the roster.
type workload struct {
	name   string
	scheme string // "sum8" or "bits1024"
	// invalidEvery makes one pool entry in that many invalid, at positions
	// drawn from the seed; 0 keeps every submission honest.
	invalidEvery int
	// rate is the open-loop send rate in submissions/s; 0 runs closed loop,
	// each stream keeping its credit window full.
	rate float64
	// window is the collection-window width; 0 turns windows off.
	window               time.Duration
	epsilon, sensitivity float64
	pool                 int // pre-built submissions, sent round robin
}

// streams is how many ingest streams the generator drives, one goroutine
// each: the host's CPU count on the reference machine.
const streams = 2

var workloads = map[string]workload{
	"bits1024-closed": {name: "bits1024-closed", scheme: "bits1024", pool: 256},
	"sum8-open": {name: "sum8-open", scheme: "sum8", pool: 2048, rate: 2000,
		window: time.Second, epsilon: 1, sensitivity: 256},
	"sum8-reject-closed": {name: "sum8-reject-closed", scheme: "sum8", pool: 2048, invalidEvery: 32},
}

func (w workload) newScheme() prio.Scheme {
	switch w.scheme {
	case "sum8":
		return prio.NewSum(8)
	case "bits1024":
		return prio.NewBitVector(1024)
	}
	panic("perfbench: unknown scheme " + w.scheme)
}

// item is one pre-built submission with what the servers must make of it.
type item struct {
	sub     *core.Submission
	valid   bool
	contrib []uint64 // what an accepted copy adds to the decoded aggregate
	size    int      // upload bytes: len(sub.Marshal())
}

// pool is the generator's pre-built submissions, with the client that built
// them.
type pool struct {
	items  []item
	client *prio.Client
	encs   [][]uint64 // each item's encoding, for the timed rebuilds
	// buildMS is the thread CPU time of each BuildSubmission made while the
	// pool was built, in ms; wall is their summed wall time.
	buildMS []float64
	wall    int64
	// sampleMS is the thread CPU time of each BuildSubmission sampled while
	// the roster ran, in ms, and sampled their sum, which the process CPU
	// figures leave out.
	sampleMS []float64
	sampled  atomic.Int64
}

// buildPool makes w.pool submissions sealed to pubs. The seed picks every
// value and which entries are invalid; an invalid entry carries an
// out-of-range first element, which Valid rejects in every scheme here.
func buildPool(w workload, pubs []*sealbox.PublicKey, seed int64, tr *tracer) (*pool, error) {
	runtime.LockOSThread() // for the thread CPU times
	defer runtime.UnlockOSThread()
	rng := rand.New(rand.NewSource(seed))
	scheme := w.newScheme()
	pro, err := prio.NewProtocol(prio.Config{Scheme: scheme, Servers: servers, Mode: prio.ModePrio, Seal: true})
	if err != nil {
		return nil, err
	}
	p := &pool{}
	if p.client, err = prio.NewClient(pro, pubs, nil); err != nil {
		return nil, err
	}
	bad := make([]bool, w.pool)
	if w.invalidEvery > 0 {
		for _, i := range rng.Perm(w.pool)[:w.pool/w.invalidEvery] {
			bad[i] = true
		}
	}
	f := prio.DefaultField()
	for i := 0; i < w.pool; i++ {
		var enc []uint64
		var contrib []uint64
		switch s := scheme.(type) {
		case *prio.Sum:
			v := uint64(rng.Intn(1 << s.Bits()))
			enc, err = s.Encode(v)
			contrib = []uint64{v}
		case *prio.BitVector:
			bits := make([]bool, s.Len())
			contrib = make([]uint64, s.Len())
			for j := range bits {
				bits[j] = rng.Intn(2) == 1
				if bits[j] {
					contrib[j] = 1
				}
			}
			enc, err = s.Encode(bits)
		}
		if err != nil {
			return nil, err
		}
		if bad[i] {
			enc[0] = f.Add(enc[0], f.FromUint64(1<<40))
		}
		sub, cpu, err := p.build(enc, tr)
		if err != nil {
			return nil, err
		}
		p.buildMS = append(p.buildMS, float64(cpu)/1e6)
		p.encs = append(p.encs, enc)
		p.items = append(p.items, item{sub: sub, valid: !bad[i], contrib: contrib, size: len(sub.Marshal())})
	}
	return p, nil
}

// build runs one BuildSubmission, the client layer's entry point, and
// returns the thread CPU time it took; the caller holds its OS thread.
func (p *pool) build(enc []uint64, tr *tracer) (*core.Submission, time.Duration, error) {
	traced := tr.on.Load()
	start, cpu0 := tr.now(), threadCPU()
	sub, err := p.client.BuildSubmission(enc)
	cpu, end := threadCPU()-cpu0, tr.now()
	if traced {
		tr.record(span{start: start, end: end, parent: -1, layer: layerClient, member: -1, op: opBuild})
	}
	p.wall += end - start
	return sub, cpu, err
}

// sampleBuilds rebuilds pool entries in turn while the roster runs, on a
// thread of its own, until stop is closed. It rests 49 times each build's
// CPU time between builds, so it takes 2% of one core. Thread CPU time,
// unlike wall time, leaves out the waits for a core the roster keeps busy,
// and sampling across the whole run averages over the host's speed
// changing under it.
func (p *pool) sampleBuilds(tr *tracer, stop <-chan struct{}) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for i := 0; ; i++ {
		_, cpu, err := p.build(p.encs[i%len(p.encs)], tr)
		if err != nil {
			return err
		}
		p.sampleMS = append(p.sampleMS, float64(cpu)/1e6)
		p.sampled.Add(int64(cpu))
		select {
		case <-stop:
			return nil
		case <-time.After(49 * cpu):
		}
	}
}

// threadCPU returns the calling thread's CPU time at nanosecond resolution;
// getrusage's per-thread figure may count only whole scheduler ticks.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	// CLOCK_THREAD_CPUTIME_ID; it cannot fail for the calling thread.
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, 3, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// decodeAggregate decodes a windows-off aggregate into the same integer
// vector the pool's contributions sum to.
func decodeAggregate(scheme prio.Scheme, agg []uint64, n uint64) ([]uint64, error) {
	switch s := scheme.(type) {
	case *prio.Sum:
		v, err := s.Decode(agg, int(n))
		if err != nil {
			return nil, err
		}
		if !v.IsUint64() {
			return nil, fmt.Errorf("aggregate %v overflows", v)
		}
		return []uint64{v.Uint64()}, nil
	case *prio.BitVector:
		return s.Decode(agg, int(n))
	}
	return nil, fmt.Errorf("no decoder for %s", scheme.Name())
}

// ackRec is one ack as the generator saw it: tracer times in nanoseconds,
// lat being the submitter's own Submit-call-to-ack time.
type ackRec struct {
	id     uint64
	status ingest.AckStatus
	at     int64
	lat    int64
}

// sendLog is everything one stream sent and got back. Send k carries ID
// k+1 and pool entry index(k).
type sendLog struct {
	sent  int
	index func(k int) int
	acks  []ackRec
	// due and done hold, per send, when it was due and when Submit
	// returned (open loop only).
	due, done []int64
}

// genStream is one ingest stream and its sender.
type genStream struct {
	sub *ingest.StreamSubmitter

	mu     sync.Mutex // guards log.acks, which the submitter's reader appends to
	log    sendLog
	notify chan struct{} // signalled after each logged ack
}

// openStream dials the leader's ingest endpoint, logging every ack.
func openStream(d *deployment, tr *tracer, index func(k int) int) (*genStream, error) {
	g := &genStream{log: sendLog{index: index}, notify: make(chan struct{}, 1)}
	var err error
	g.sub, err = ingest.Dial(d.addr, ingest.SubmitterConfig{
		TLS: d.dialTLS,
		OnAck: func(a ingest.Ack) {
			r := ackRec{id: a.ID, status: a.Status, at: tr.now(), lat: int64(a.Latency)}
			g.mu.Lock()
			g.log.acks = append(g.log.acks, r)
			g.mu.Unlock()
			select {
			case g.notify <- struct{}{}:
			default:
			}
		},
	})
	return g, err
}

// drain waits, up to timeout, until every send has its ack, then closes the
// stream and returns the log. Call it once the sender has stopped.
func (g *genStream) drain(timeout time.Duration) (sendLog, error) {
	t := time.NewTimer(timeout)
	defer t.Stop()
	var err error
	for err == nil {
		g.mu.Lock()
		n := len(g.log.acks)
		g.mu.Unlock()
		if n >= g.log.sent {
			break
		}
		select {
		case <-g.notify:
		case <-t.C:
			err = fmt.Errorf("%d of %d acks missing after %v", g.log.sent-n, g.log.sent, timeout)
		}
	}
	g.sub.Close()
	g.mu.Lock()
	defer g.mu.Unlock()
	log := g.log
	log.acks = append([]ackRec(nil), g.log.acks...)
	return log, err
}

// roundRobin maps stream s's k-th send to the pool, interleaving the streams
// so the pool is sent in order.
func roundRobin(s, n int) func(k int) int {
	return func(k int) int { return (k*streams + s) % n }
}

// generate drives the streams from tracer time start until stop: closed loop
// sends back to back, open loop sends global submission g when it is due, at
// start + g/rate, however late that is, and never drops a send.
func generate(w workload, p *pool, gs []*genStream, tr *tracer, start, stop int64) error {
	var wg sync.WaitGroup
	errs := make([]error, len(gs))
	for s, g := range gs {
		s, g := s, g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; ; k++ {
				now := tr.now()
				var due int64
				if w.rate > 0 {
					due = start + int64(float64(k*streams+s)*1e9/w.rate)
					if due >= stop {
						return
					}
					if now < due {
						time.Sleep(time.Duration(due - now))
					}
				} else if now >= stop {
					return
				}
				if _, err := g.sub.Submit(p.items[g.log.index(k)].sub); err != nil {
					errs[s] = fmt.Errorf("stream %d: %w", s, err)
					return
				}
				g.log.sent++
				if w.rate > 0 {
					g.log.due = append(g.log.due, due)
					g.log.done = append(g.log.done, tr.now())
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
