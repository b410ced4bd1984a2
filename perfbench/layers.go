package main

import (
	"fmt"
	"sort"

	"prio/internal/core"
)

// group is the spans of one (layer, member, operation) in the traced phase.
type group struct {
	layer  uint8
	member int8
	op     uint8
	calls  int
	total  int64   // Σ duration
	self   int64   // Σ duration not covered by child spans
	durs   []int64 // each duration
	ivs    []interval
}

// groupSpans buckets the spans keep admits by layer, member and operation,
// with each span's self time: its duration less its children's.
func groupSpans(spans []span, keep func(span) bool) map[[3]int]*group {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	gs := map[[3]int]*group{}
	for i, s := range spans {
		if !keep(s) {
			continue
		}
		k := [3]int{int(s.layer), int(s.member), int(s.op)}
		g := gs[k]
		if g == nil {
			g = &group{layer: s.layer, member: s.member, op: s.op}
			gs[k] = g
		}
		d := s.end - s.start
		g.calls++
		g.total += d
		g.self += d - child[i]
		g.durs = append(g.durs, d)
		g.ivs = append(g.ivs, interval{s.start, s.end})
	}
	return gs
}

// sel merges the groups of one layer and operation over the given members
// (nil: every member).
func sel(gs map[[3]int]*group, layer, op uint8, members ...int8) *group {
	out := &group{layer: layer, op: op}
	for _, g := range gs {
		if g.layer != layer || g.op != op {
			continue
		}
		if members != nil && !containsMember(members, g.member) {
			continue
		}
		out.calls += g.calls
		out.total += g.total
		out.self += g.self
		out.durs = append(out.durs, g.durs...)
		out.ivs = append(out.ivs, g.ivs...)
	}
	return out
}

func containsMember(ms []int8, m int8) bool {
	for _, x := range ms {
		if x == m {
			return true
		}
	}
	return false
}

// pct returns the q-quantile of the durations, in ms; 0 for no calls.
func (g *group) pct(q float64) float64 {
	if len(g.durs) == 0 {
		return 0
	}
	xs := make([]float64, len(g.durs))
	for i, d := range g.durs {
		xs[i] = float64(d) / 1e6
	}
	return quantile(xs, q)
}

// mean returns the mean duration in ms; 0 for no calls.
func (g *group) mean() float64 {
	if g.calls == 0 {
		return 0
	}
	return float64(g.total) / float64(g.calls) / 1e6
}

var followers = []int8{1, 2}

// perLayer computes the per-layer metrics from the traced phase, traced,
// with untraced as the overhead reference, and writes the per-layer table.
func perLayer(rep *report, w workload, p *pool, logs []sendLog, untraced, traced phase, spans []span) {
	// Client spans come from the builds around the roster's run; every
	// other layer counts in the traced phase only.
	gs := groupSpans(spans, func(s span) bool {
		return s.layer == layerClient || (s.start >= traced.from.at && s.start < traced.to.at)
	})
	client := map[[3]int]*group{}
	for k, g := range gs {
		if g.layer == layerClient {
			client[k] = g
			delete(gs, k)
		}
	}
	wall := traced.to.at - traced.from.at
	dPipe := traced.to.pipe
	subs := float64(dPipe.Processed - traced.from.pipe.Processed)
	batches := float64(dPipe.Batches - traced.from.pipe.Batches)
	perSub := func(ns int64) float64 { return float64(ns) / 1e3 / subs }

	lat, _ := ackSample(w, logs, traced)
	ackP50 := quantile(lat, 0.5)
	decide := sel(gs, layerPipeline, opDecide)
	r1Lead := sel(gs, layerServer, core.MsgRound1, 0)
	r1Fol := sel(gs, layerServer, core.MsgRound1, followers...)
	var busy float64
	for _, m := range followers {
		busy += float64(covered(sel(gs, layerServer, core.MsgRound1, m).ivs)) / float64(wall)
	}
	r2 := sel(gs, layerServer, core.MsgRound2Batch)
	var waitNS int64
	for _, g := range gs {
		if g.layer == layerRounds && g.member != 0 {
			waitNS += g.self
		}
	}
	quiesce := sel(gs, layerWindow, opQuiesce)
	var late float64
	if w.rate > 0 {
		_, l := delivery(logs, traced)
		late = quantile(l, 0.99)
	}
	tput, cpu := throughputCPU(w, logs, traced)
	tput0, cpu0 := throughputCPU(w, logs, untraced)
	delivered := tput // closed loop sends as fast as decisions free credits
	if w.rate > 0 {
		delivered, _ = delivery(logs, traced)
	}

	// The ack percentiles come from the untraced third, pooled.
	ackLat, _ := ackSample(w, logs, untraced)
	rep.add("ack.p50_ms", "ms", quantile(ackLat, 0.50))
	rep.add("ack.p99_ms", "ms", quantile(ackLat, 0.99))
	builds := append(append([]float64(nil), p.buildMS...), p.sampleMS...)
	rep.add("client.build_p99_ms", "ms", quantile(builds, 0.99))
	rep.add("ingest.edge_p50_ms", "ms", ackP50-decide.pct(0.5))
	rep.add("ingest.sink_refused", "count", float64(traced.to.refused-traced.from.refused))
	rep.add("ingest.shed", "count", float64(traced.to.ingest.Shed-traced.from.ingest.Shed))
	rep.add("pipeline.decide_p50_ms", "ms", decide.pct(0.5))
	rep.add("pipeline.decide_p99_ms", "ms", decide.pct(0.99))
	rep.add("pipeline.batch_mean", "subs", subs/batches)
	rep.add("pipeline.retried", "count", float64(dPipe.Retried-traced.from.pipe.Retried))
	rep.add("pipeline.failed", "count", float64(dPipe.Failed-traced.from.pipe.Failed))
	rep.add("server.round1.leader_us_per_sub", "us", perSub(r1Lead.total))
	rep.add("server.round1.follower_us_per_sub", "us", perSub(r1Fol.total)/float64(len(followers)))
	rep.add("server.round1.follower_busy_share", "share", busy/float64(len(followers)))
	rep.add("server.round2.calls_per_batch", "calls", float64(sel(gs, layerServer, core.MsgRound2Batch, 0).calls)/batches)
	rep.add("server.round2.us_per_sub", "us", perSub(r2.total))
	rep.add("server.finish.us_per_sub", "us", perSub(sel(gs, layerServer, core.MsgFinish).total))
	rep.add("server.challenge.calls", "count", float64(sel(gs, layerServer, core.MsgSetChallenge, 0).calls))
	rep.add("rounds.wait_us_per_sub", "us", perSub(waitNS))
	rep.add("rounds.round1_rtt_p50_ms", "ms", sel(gs, layerRounds, core.MsgRound1, followers...).pct(0.5))
	rep.add("rounds.peer_bytes_per_sub", "B", float64(traced.to.peers.BytesSent+traced.to.peers.BytesRecv-
		traced.from.peers.BytesSent-traced.from.peers.BytesRecv)/subs)
	rep.add("rounds.msgs_per_sub", "msgs", float64(traced.to.peers.MsgsSent+traced.to.peers.MsgsRecv-
		traced.from.peers.MsgsSent-traced.from.peers.MsgsRecv)/subs)
	rep.add("window.quiesce_p50_ms", "ms", quiesce.pct(0.5))
	rep.add("window.quiesce_max_ms", "ms", quiesce.pct(1))
	rep.add("window.seal_ms", "ms", sel(gs, layerServer, core.MsgWindowPublish).mean())
	rep.add("window.checkpoint_p50_ms", "ms", float64(traced.to.ckpt.Delta(traced.from.ckpt).Quantile(0.5))/1e6)
	rep.add("window.published", "count", float64(traced.to.published-traced.from.published))
	rep.add("runtime.allocs_per_sub", "allocs", float64(traced.to.mallocs-traced.from.mallocs)/subs)
	rep.add("runtime.gc_cycles_per_ksub", "count", float64(traced.to.gcs-traced.from.gcs)*1000/subs)
	rep.add("loadgen.late_p99_ms", "ms", late)
	rep.add("loadgen.delivered_subs_s", "1/s", delivered)
	rep.add("trace.throughput_ratio", "ratio", tput/tput0)
	rep.add("trace.cpu_ratio", "ratio", cpu/cpu0)

	rep.printf("# %s traced phase: %.1f s, %d subs decided in %d batches; %d spans", w.name,
		float64(wall)/1e9, int(subs), int(batches), len(spans))
	rep.printf("# tracing overhead: throughput %.0f traced vs %.0f untraced subs/s (x%.3f); CPU %.1f vs %.1f us/sub (x%.3f)",
		tput, tput0, tput/tput0, cpu, cpu0, cpu/cpu0)
	if w.rate > 0 {
		rep.printf("# open loop: offered %.0f subs/s, delivered %.1f subs/s%s", w.rate, delivered, backlogged(w.rate, delivered))
	}
	rep.printf("# %-8s %-9s %-14s %8s %9s %6s %9s %9s", "layer", "member", "op", "calls", "busy_s", "share", "us/sub", "self/sub")
	rows := make([]*group, 0, len(gs)+len(client))
	for _, g := range client {
		rows = append(rows, g)
	}
	for _, g := range gs {
		rows = append(rows, g)
	}
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.layer != b.layer {
			return a.layer < b.layer
		}
		if a.op != b.op {
			return a.op < b.op
		}
		return a.member < b.member
	})
	for _, g := range rows {
		// The client layer's wall and per-sub base are its own builds: the
		// pool's, and those sampled while the roster ran.
		gwall, base := float64(wall), subs
		if g.layer == layerClient {
			gwall, base = float64(p.wall), float64(len(builds))
		}
		b := float64(covered(g.ivs))
		rep.printf("# %-8s %-9s %-14s %8d %9.3f %6.3f %9.1f %9.1f", layerNames[g.layer], role(g.member),
			opName(g.layer, g.op), g.calls, b/1e9, b/gwall, float64(g.total)/1e3/base, float64(g.self)/1e3/base)
	}
}

// role names a roster member.
func role(m int8) string {
	switch {
	case m < 0:
		return "generator"
	case m == 0:
		return "leader"
	}
	return fmt.Sprintf("follower%d", m)
}

// throughputCPU returns the decided subs/s and process CPU µs per decided
// submission over ph.
func throughputCPU(w workload, logs []sendLog, ph phase) (float64, float64) {
	_, decided := ackSample(w, logs, ph)
	return float64(decided) / ph.seconds(), float64(ph.to.cpu-ph.from.cpu) / 1e3 / float64(decided)
}
