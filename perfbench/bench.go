package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"prio"
	"prio/internal/core"
	"prio/internal/ingest"
	"prio/internal/sealbox"
	"prio/internal/telemetry"
	"prio/internal/transport"
)

const (
	// setupRuns is how many times a run brings the roster up; setup_s is
	// the median, and the last roster is the one measured.
	setupRuns = 25
	// warmup runs the generator unmeasured before the measured phase.
	warmup = time.Second
	// slice is the length of the intervals throughput and CPU are computed
	// over; a run reports the median across its slices.
	slice = time.Second
	// ackTimeout bounds the wait for the last acks once sending stops.
	ackTimeout = 30 * time.Second
)

// named is one reported metric.
type named struct {
	name, unit string
	value      float64
}

// report is a finished run: its ledger, its metrics, and the human-readable
// lines printed before the result.
type report struct {
	ledger  tally
	metrics []named
	lines   []string
}

func (r *report) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, named{name: name, unit: unit, value: v})
}

func (r *report) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// snap is the counters read at a phase boundary.
type snap struct {
	at        int64 // tracer time
	cpu       time.Duration
	mallocs   uint64
	gcs       uint32
	pipe      prio.ShardStats
	ingest    ingest.Stats
	refused   uint64
	peers     transport.Stats
	ckpt      telemetry.HistSnapshot
	published int
}

// takeSnap reads the counters. Its CPU figure leaves out the client builds
// sampled meanwhile.
func takeSnap(d *deployment, p *pool, tr *tracer) snap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := snap{
		at:        tr.now(),
		cpu:       time.Duration(ru.Utime.Nano() + ru.Stime.Nano() - p.sampled.Load()),
		mallocs:   ms.Mallocs,
		gcs:       ms.NumGC,
		pipe:      d.pipeline.Stats(),
		ingest:    d.ingest.Stats(),
		refused:   d.sink.refused.Load(),
		peers:     d.peerStats(),
		published: len(d.published()),
	}
	if d.leaderWS != nil {
		// The series window.Config.Registry already carries; looking it up
		// by name adds nothing.
		s.ckpt = d.reg.Duration("prio_window_checkpoint_seconds", "").Snapshot()
	}
	return s
}

// phase is a measured interval of the run.
type phase struct{ from, to snap }

func (p phase) seconds() float64 { return float64(p.to.at-p.from.at) / 1e9 }

// bench runs workload w once: build the pool, bring the roster up
// setupRuns times, drive it for warm-up plus measure, check every outcome,
// and compute the metrics. Traced runs split measure into an untraced third
// and a traced rest, so the report can state the tracing overhead.
func bench(w workload, seed int64, measure time.Duration, traced bool) (*report, error) {
	pubs, privs, err := newKeys()
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	tr.on.Store(traced)
	p, err := buildPool(w, pubs, seed, tr)
	if err != nil {
		return nil, fmt.Errorf("building pool: %w", err)
	}
	tr.on.Store(false)

	dir, err := scratchDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var setups []float64
	var d *deployment
	defer func() {
		if d != nil {
			d.Close()
		}
	}()
	var warm sendLog
	for i := 0; i < setupRuns; i++ {
		if d != nil {
			err := d.Close()
			d = nil
			if err != nil {
				return nil, err
			}
		}
		var took time.Duration
		d, warm, took, err = setUp(w, p, privs, tr, filepath.Join(dir, fmt.Sprint(i)))
		if err != nil {
			return nil, fmt.Errorf("setup %d: %w", i, err)
		}
		setups = append(setups, took.Seconds())
	}

	gs := make([]*genStream, streams)
	for s := range gs {
		if gs[s], err = openStream(d, tr, roundRobin(s, len(p.items))); err != nil {
			return nil, fmt.Errorf("opening stream %d: %w", s, err)
		}
	}
	start := tr.now()
	a := start + int64(warmup)
	b := a + int64(measure)
	// Phase boundaries: the traced run has an untraced third and a traced
	// rest; the untraced run has its slices.
	var cuts []int64
	if traced {
		cuts = []int64{a, a + int64(measure)/3, b}
	} else {
		for t := a; t < b; t += int64(slice) {
			cuts = append(cuts, t)
		}
		cuts = append(cuts, b)
	}
	genDone := make(chan error, 1)
	go func() { genDone <- generate(w, p, gs, tr, start, b) }()
	// The client is sampled through the measured phase.
	stopSampling := make(chan struct{})
	sampleDone := make(chan error, 1)
	var snaps []snap
	for i, t := range cuts {
		sleepUntil(tr, t)
		if i == len(cuts)-1 {
			tr.on.Store(false)
			close(stopSampling)
			if err := <-sampleDone; err != nil {
				return nil, fmt.Errorf("sampling the client: %w", err)
			}
		}
		snaps = append(snaps, takeSnap(d, p, tr))
		if i == 0 {
			go func() { sampleDone <- p.sampleBuilds(tr, stopSampling) }()
		}
		if traced && i == 1 {
			tr.on.Store(true)
		}
	}
	genErr := <-genDone

	logs := []sendLog{warm}
	var lastAck int64
	for s, g := range gs {
		l, err := g.drain(ackTimeout)
		if err != nil {
			return nil, fmt.Errorf("stream %d: %w", s, err)
		}
		for _, r := range l.acks {
			lastAck = max(lastAck, r.at)
		}
		logs = append(logs, l)
	}
	if genErr != nil {
		return nil, genErr
	}

	// The correctness gate.
	rep := &report{}
	rep.ledger, err = checkLedger(p.items, logs)
	if err != nil {
		return rep, err
	}
	if w.window > 0 {
		if err := d.awaitPublished(tr.at(lastAck), w.window+5*time.Second); err != nil {
			return rep, err
		}
		if err := checkWindows(rep.ledger, d.published()); err != nil {
			return rep, err
		}
	} else {
		agg, n, err := d.pipeline.Aggregate()
		if err != nil {
			return rep, err
		}
		got, err := decodeAggregate(w.newScheme(), agg, n)
		if err != nil {
			return rep, err
		}
		if err := checkAggregate(rep.ledger, got, n); err != nil {
			return rep, err
		}
	}

	gen := logs[1:]
	if !traced {
		var slices []phase
		for i := 1; i < len(snaps); i++ {
			slices = append(slices, phase{snaps[i-1], snaps[i]})
		}
		endToEnd(rep, w, p, gen, slices, setups)
		return rep, nil
	}
	spans := tr.snapshot()
	linkParents(spans)
	perLayer(rep, w, p, gen, phase{snaps[0], snaps[1]}, phase{snaps[1], snaps[2]}, spans)
	if err := writeSpans(w, spans); err != nil {
		return rep, err
	}
	return rep, nil
}

// setUp brings one roster up and times it from the first constructor to the
// decision on one submission, pool entry 0, sent over a fresh stream.
func setUp(w workload, p *pool, privs []*sealbox.PrivateKey, tr *tracer, dir string) (*deployment, sendLog, time.Duration, error) {
	t0 := tr.now()
	d, err := deploy(w, privs, tr, dir)
	if err != nil {
		return nil, sendLog{}, 0, err
	}
	log, err := func() (sendLog, error) {
		g, err := openStream(d, tr, func(int) int { return 0 })
		if err != nil {
			return sendLog{}, err
		}
		if _, err := g.sub.Submit(p.items[0].sub); err != nil {
			g.sub.Close()
			return sendLog{}, err
		}
		g.log.sent = 1
		return g.drain(ackTimeout)
	}()
	if err == nil {
		_, err = checkLedger(p.items, []sendLog{log})
	}
	if err != nil {
		d.Close()
		return nil, sendLog{}, 0, err
	}
	return d, log, time.Duration(log.acks[0].at - t0), nil
}

func sleepUntil(tr *tracer, t int64) {
	if d := t - tr.now(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

// ackSample returns, for the sends due in ph, each ack's latency in ms from
// when its send was due (+Inf for a send not decided), and how many
// decisions arrived during ph. In closed loop a send is due when Submit is
// called.
func ackSample(w workload, logs []sendLog, ph phase) (lat []float64, decided int) {
	in := func(t int64) bool { return t >= ph.from.at && t < ph.to.at }
	for _, l := range logs {
		acked := make([]bool, l.sent)
		for _, r := range l.acks {
			k := int(r.id) - 1
			acked[k] = true
			ok := r.status == ingest.StatusAccepted || r.status == ingest.StatusRejected
			if ok && in(r.at) {
				decided++
			}
			due := r.at - r.lat
			if w.rate > 0 {
				due = l.due[k]
			}
			if !in(due) {
				continue
			}
			if ok {
				lat = append(lat, float64(r.at-due)/1e6)
			} else {
				lat = append(lat, math.Inf(1))
			}
		}
		for k, done := range acked {
			if !done && (w.rate == 0 || in(l.due[k])) {
				lat = append(lat, math.Inf(1))
			}
		}
	}
	return lat, decided
}

// endToEnd computes the metrics a user of the roster sees. Throughput and
// CPU are the median over the run's slices. The ack percentiles, pooled
// over the measured phase, are printed but reported with the per-layer
// metrics: on a shared two-core host they move by a quarter to a half from
// run to run, more than any bound could tolerate.
func endToEnd(rep *report, w workload, p *pool, logs []sendLog, slices []phase, setups []float64) {
	var tput, cpu []float64
	for _, ph := range slices {
		t, c := throughputCPU(w, logs, ph)
		tput, cpu = append(tput, t), append(cpu, c)
	}
	all := phase{slices[0].from, slices[len(slices)-1].to}
	lat, _ := ackSample(w, logs, all)
	p50, p99 := quantile(lat, 0.50), quantile(lat, 0.99)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	build := median(append([]float64(nil), p.sampleMS...))
	var upload int
	for _, it := range p.items {
		upload += it.size
	}
	rep.add("throughput_subs_s", "1/s", median(tput))
	rep.add("cpu_us_per_sub", "us", median(cpu))
	rep.add("peak_rss_mb", "MB", float64(ru.Maxrss)/1024)
	rep.add("client_build_ms", "ms", build)
	rep.add("upload_bytes_per_sub", "B", float64(upload)/float64(len(p.items)))
	rep.add("setup_s", "s", median(setups))

	rep.printf("# %s: %.0f decided subs/s and %.1f us CPU/sub (medians over %d slices of %v); ack p50 %.3f ms, p99 %.3f ms (n=%d)",
		w.name, median(tput), median(cpu), len(slices), slice, p50, p99, len(lat))
	rep.printf("# client build p50 %.3f ms CPU (n=%d, sampled through the measured phase); setup median %.4f s (n=%d)",
		build, len(p.sampleMS), median(setups), len(setups))
	if w.rate > 0 {
		delivered, late := delivery(logs, all)
		rep.printf("# open loop: offered %.0f subs/s, delivered %.1f subs/s%s; generator late p99 %.3f ms",
			w.rate, delivered, backlogged(w.rate, delivered), quantile(late, 0.99))
	}
}

// delivery returns the sends completed per second in ph and how late each
// send due in ph went out, in ms.
func delivery(logs []sendLog, ph phase) (rate float64, late []float64) {
	var n int
	for _, l := range logs {
		for k := range l.due {
			if l.done[k] >= ph.from.at && l.done[k] < ph.to.at {
				n++
			}
			if l.due[k] >= ph.from.at && l.due[k] < ph.to.at {
				late = append(late, float64(l.done[k]-l.due[k])/1e6)
			}
		}
	}
	return float64(n) / ph.seconds(), late
}

// backlogged flags a run whose generator delivered more than 1% off the
// offered rate.
func backlogged(offered, delivered float64) string {
	if math.Abs(delivered-offered) > 0.01*offered {
		return " BACKLOGGED"
	}
	return ""
}

// writeSpans writes the traced run's spans under the build directory, one
// CSV row each.
func writeSpans(w workload, spans []span) error {
	path := filepath.Join(".bench_build", "trace-"+w.name+".csv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "layer,member,op,start_ns,end_ns,parent")
	for _, s := range spans {
		fmt.Fprintf(bw, "%s,%d,%s,%d,%d,%d\n", layerNames[s.layer], s.member, opName(s.layer, s.op), s.start, s.end, s.parent)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// opName names a span's operation: the protocol message for server and
// rounds spans.
func opName(layer, op uint8) string {
	switch layer {
	case layerServer, layerRounds:
		switch op {
		case core.MsgSetChallenge:
			return "SetChallenge"
		case core.MsgRound1:
			return "Round1"
		case core.MsgRound2:
			return "Round2"
		case core.MsgFinish:
			return "Finish"
		case core.MsgRound2Batch:
			return "Round2Batch"
		case core.MsgWindowPublish:
			return "WindowPublish"
		}
		return fmt.Sprintf("msg%d", op)
	case layerClient:
		return "BuildSubmission"
	case layerIngest:
		return "SinkSubmit"
	case layerPipeline:
		return "Decide"
	case layerWindow:
		if op == opBoundary {
			return "Boundary"
		}
		return "Quiesce"
	}
	return fmt.Sprint(op)
}
