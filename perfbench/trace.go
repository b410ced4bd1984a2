package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"prio/internal/core"
	"prio/internal/ingest"
	"prio/internal/transport"
)

// Layers, named after the modules a submission passes through.
const (
	layerClient   = iota // internal/core Client: split, prove, seal
	layerIngest          // internal/ingest: the Sink call that hands a submission on
	layerPipeline        // core.Pipeline: Sink call to decision callback
	layerServer          // core.Server.Handle, one span per message
	layerRounds          // the leader's transport.Peer calls
	layerWindow          // internal/window: the wrapped Quiesce and its boundary
)

var layerNames = [...]string{"client", "ingest", "pipeline", "server", "rounds", "window"}

// Span kinds for the layers whose spans are not protocol messages.
const (
	opBuild    = 0 // client: BuildSubmission
	opSubmit   = 0 // ingest: Sink.SubmitFunc / TrySubmitFunc
	opDecide   = 0 // pipeline: Sink call to decision
	opQuiesce  = 0 // window: Pipeline.Quiesce as the window service calls it
	opBoundary = 1 // window: the boundary pass run inside Quiesce
)

// span is one wrapped call. Times are nanoseconds since the tracer's epoch;
// parent indexes the enclosing span, -1 where none is known.
type span struct {
	start, end int64
	parent     int32
	layer      uint8
	member     int8 // roster member, -1 for the generator side
	op         uint8
}

// tracer records one span per wrapped call while on. The wrappers are
// installed in every run; off, each costs an atomic load.
type tracer struct {
	epoch time.Time
	on    atomic.Bool

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now is the monotonic time since the epoch.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// at converts a tracer time to wall time.
func (t *tracer) at(ns int64) time.Time { return t.epoch.Add(time.Duration(ns)) }

// begin returns the start time of a span, or false when tracing is off.
func (t *tracer) begin() (int64, bool) {
	if !t.on.Load() {
		return 0, false
	}
	return t.now(), true
}

// end records a span that began at start and ends now.
func (t *tracer) end(layer uint8, member int8, op uint8, start int64) {
	t.record(span{start: start, end: t.now(), parent: -1, layer: layer, member: member, op: op})
}

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// handler wraps member i's transport.Handler: one server span per message.
func (t *tracer) handler(i int, h transport.Handler) transport.Handler {
	return func(msgType byte, payload []byte) ([]byte, error) {
		start, ok := t.begin()
		resp, err := h(msgType, payload)
		if ok {
			t.end(layerServer, int8(i), msgType, start)
		}
		return resp, err
	}
}

// quiesce wraps the pipeline's Quiesce as the window service calls it, with
// the boundary pass it runs as a child span.
func (t *tracer) quiesce(q func(func())) func(func()) {
	return func(fn func()) {
		start, ok := t.begin()
		q(func() {
			bstart, bok := t.begin()
			fn()
			if bok {
				t.end(layerWindow, 0, opBoundary, bstart)
			}
		})
		if ok {
			t.end(layerWindow, 0, opQuiesce, start)
		}
	}
}

// tracedPeer wraps one of the leader's transport.Peers: one rounds span per
// call.
type tracedPeer struct {
	transport.Peer
	member int
	tr     *tracer
}

// Call implements transport.Peer.
func (p *tracedPeer) Call(msgType byte, payload []byte) ([]byte, error) {
	start, ok := p.tr.begin()
	resp, err := p.Peer.Call(msgType, payload)
	if ok {
		p.tr.end(layerRounds, int8(p.member), msgType, start)
	}
	return resp, err
}

// tracedSink wraps the ingest.Sink handed to ingest.NewServer: an ingest span
// per call and a pipeline span from the call to the decision.
type tracedSink struct {
	sink    ingest.Sink
	tr      *tracer
	refused atomic.Uint64 // TrySubmitFunc calls the pipeline turned away
}

// decide wraps fn so the decision closes a pipeline span opened at start.
func (s *tracedSink) decide(start int64, fn func(core.SubmitResult)) func(core.SubmitResult) {
	return func(r core.SubmitResult) {
		s.tr.end(layerPipeline, 0, opDecide, start)
		fn(r)
	}
}

// SubmitFunc implements ingest.Sink.
func (s *tracedSink) SubmitFunc(sub *core.Submission, fn func(core.SubmitResult)) error {
	start, ok := s.tr.begin()
	if !ok {
		return s.sink.SubmitFunc(sub, fn)
	}
	err := s.sink.SubmitFunc(sub, s.decide(start, fn))
	s.tr.end(layerIngest, 0, opSubmit, start)
	return err
}

// TrySubmitFunc implements ingest.Sink.
func (s *tracedSink) TrySubmitFunc(sub *core.Submission, fn func(core.SubmitResult)) (bool, error) {
	start, ok := s.tr.begin()
	if ok {
		fn = s.decide(start, fn)
	}
	took, err := s.sink.TrySubmitFunc(sub, fn)
	if ok {
		s.tr.end(layerIngest, 0, opSubmit, start)
	}
	if err == nil && !took {
		s.refused.Add(1)
	}
	return took, err
}

// linkParents sets each follower server span's parent to the leader's
// rounds span to the same member and message type that encloses it, and
// each window boundary span's parent to its Quiesce.
func linkParents(spans []span) {
	type key struct{ layer, member, op uint8 }
	byKey := map[key][]int32{}
	for i, s := range spans {
		if s.layer == layerRounds || (s.layer == layerWindow && s.op == opQuiesce) {
			k := key{s.layer, uint8(s.member), s.op}
			byKey[k] = append(byKey[k], int32(i))
		}
	}
	for _, idx := range byKey {
		sort.Slice(idx, func(a, b int) bool { return spans[idx[a]].start < spans[idx[b]].start })
	}
	for i := range spans {
		s := &spans[i]
		var k key
		switch {
		case s.layer == layerServer:
			k = key{layerRounds, uint8(s.member), s.op}
		case s.layer == layerWindow && s.op == opBoundary:
			k = key{layerWindow, 0, opQuiesce}
		default:
			continue
		}
		cands := byKey[k]
		// The latest-starting candidate that began before s and ended after
		// it; concurrent calls of one kind make the choice ambiguous only
		// between spans that all enclose s. Calls of one kind overlap at most
		// a few deep, so the look-back is bounded.
		j := sort.Search(len(cands), func(j int) bool { return spans[cands[j]].start > s.start }) - 1
		for stop := j - 64; j >= 0 && j > stop; j-- {
			if c := spans[cands[j]]; c.end >= s.end {
				s.parent = cands[j]
				break
			}
		}
	}
}
