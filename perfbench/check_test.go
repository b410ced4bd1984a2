package main

import (
	"math"
	"strings"
	"testing"

	"prio/internal/ingest"
	"prio/internal/window"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.2, 1}, {0.5, 3}, {0.99, 5}, {1, 5}} {
		if got := quantile(append([]float64(nil), xs...), c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("quantile of nothing = %v, want NaN", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// A missing ack is +Inf: it ranks above every finite latency, so a
// percentile past the share of acks that arrived is infinite.
func TestQuantileMissingAcksAreInfinite(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	xs[10] = math.Inf(1) // one missing ack of 100
	if got := quantile(append([]float64(nil), xs...), 0.99); math.IsInf(got, 1) {
		t.Errorf("p99 with 1 of 100 missing = %v, want finite", got)
	}
	xs[20] = math.Inf(1) // two missing
	if got := quantile(append([]float64(nil), xs...), 0.99); !math.IsInf(got, 1) {
		t.Errorf("p99 with 2 of 100 missing = %v, want +Inf", got)
	}
	if got := quantile(xs, 0.5); math.IsInf(got, 0) {
		t.Errorf("p50 with 2 of 100 missing = %v, want finite", got)
	}
}

// ackSample turns a send without an ack, and a shed ack, into +Inf
// latencies, timed from when each send was due.
func TestAckSampleTimesFromDue(t *testing.T) {
	ms := int64(1e6)
	w := workload{rate: 1000}
	l := sendLog{
		sent: 3,
		due:  []int64{0, 1 * ms, 2 * ms},
		acks: []ackRec{
			{id: 1, status: ingest.StatusAccepted, at: 5 * ms, lat: 1 * ms},
			{id: 2, status: ingest.StatusShed, at: 6 * ms},
		},
	}
	ph := phase{from: snap{at: 0}, to: snap{at: 10 * ms}}
	lat, decided := ackSample(w, []sendLog{l}, ph)
	if decided != 1 {
		t.Errorf("decided = %d, want 1", decided)
	}
	if len(lat) != 3 || lat[0] != 5 || !math.IsInf(lat[1], 1) || !math.IsInf(lat[2], 1) {
		t.Errorf("latencies = %v, want [5 +Inf +Inf]", lat)
	}
}

func TestCovered(t *testing.T) {
	ivs := []interval{{10, 20}, {0, 5}, {15, 30}, {40, 50}, {45, 46}}
	if got := covered(ivs); got != 5+20+10 {
		t.Errorf("covered = %d, want 35", got)
	}
}

// testPool is four sum entries, the third invalid.
func testPool() []item {
	return []item{
		{valid: true, contrib: []uint64{3}},
		{valid: true, contrib: []uint64{5}},
		{valid: false, contrib: []uint64{100}},
		{valid: true, contrib: []uint64{7}},
	}
}

// testLog sends the pool twice over, acking each send with status(k).
func testLog(items []item, status func(k int) ingest.AckStatus) sendLog {
	l := sendLog{sent: 2 * len(items), index: func(k int) int { return k % len(items) }}
	for k := 0; k < l.sent; k++ {
		l.acks = append(l.acks, ackRec{id: uint64(k + 1), status: status(k)})
	}
	return l
}

func honestStatus(items []item) func(k int) ingest.AckStatus {
	return func(k int) ingest.AckStatus {
		if items[k%len(items)].valid {
			return ingest.StatusAccepted
		}
		return ingest.StatusRejected
	}
}

func TestLedgerExactAcceptSet(t *testing.T) {
	items := testPool()
	tl, err := checkLedger(items, []sendLog{testLog(items, honestStatus(items))})
	if err != nil {
		t.Fatal(err)
	}
	if tl.accepted != 6 || tl.rejected != 2 || tl.truth[0] != 2*(3+5+7) {
		t.Errorf("tally = %+v", tl)
	}
	if err := checkAggregate(tl, []uint64{30}, 6); err != nil {
		t.Errorf("true aggregate refused: %v", err)
	}
}

func TestLedgerFailsOnMisacceptedSubmission(t *testing.T) {
	items := testPool()
	honest := honestStatus(items)
	l := testLog(items, func(k int) ingest.AckStatus {
		if k == 6 { // the second send of the invalid entry
			return ingest.StatusAccepted
		}
		return honest(k)
	})
	if _, err := checkLedger(items, []sendLog{l}); err == nil || !strings.Contains(err.Error(), "invalid pool entry 2 accepted") {
		t.Errorf("mis-accepted submission: err = %v", err)
	}
}

func TestLedgerFailsOnRejectedHonestOrLostAck(t *testing.T) {
	items := testPool()
	honest := honestStatus(items)
	rejected := testLog(items, func(k int) ingest.AckStatus {
		if k == 1 {
			return ingest.StatusRejected
		}
		return honest(k)
	})
	if _, err := checkLedger(items, []sendLog{rejected}); err == nil {
		t.Error("honest submission rejected: no error")
	}
	failed := testLog(items, func(k int) ingest.AckStatus {
		if k == 3 {
			return ingest.StatusShed
		}
		return honest(k)
	})
	if _, err := checkLedger(items, []sendLog{failed}); err == nil {
		t.Error("shed honest submission: no error")
	}
	lost := testLog(items, honest)
	lost.acks = lost.acks[:len(lost.acks)-1]
	if _, err := checkLedger(items, []sendLog{lost}); err == nil {
		t.Error("missing ack: no error")
	}
	dup := testLog(items, honest)
	dup.acks[1].id = 1
	if _, err := checkLedger(items, []sendLog{dup}); err == nil {
		t.Error("repeated ack: no error")
	}
}

func TestAggregateFailsOnWrongValue(t *testing.T) {
	items := testPool()
	tl, err := checkLedger(items, []sendLog{testLog(items, honestStatus(items))})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkAggregate(tl, []uint64{31}, 6); err == nil {
		t.Error("planted wrong aggregate: no error")
	}
	if err := checkAggregate(tl, []uint64{30}, 7); err == nil {
		t.Error("aggregate over the wrong client count: no error")
	}
}

func TestWindowsCheck(t *testing.T) {
	tl := tally{accepted: 10}
	good := []window.Record{
		{ID: 1, Count: 4, Consistent: true, Noised: true},
		{ID: 2, Count: 6, Consistent: true, Noised: true},
	}
	if err := checkWindows(tl, good); err != nil {
		t.Errorf("good windows refused: %v", err)
	}
	for name, mutate := range map[string]func(r []window.Record){
		"inconsistent": func(r []window.Record) { r[0].Consistent = false },
		"un-noised":    func(r []window.Record) { r[1].Noised = false },
		"short count":  func(r []window.Record) { r[1].Count = 5 },
	} {
		recs := append([]window.Record(nil), good...)
		mutate(recs)
		if err := checkWindows(tl, recs); err == nil {
			t.Errorf("%s window: no error", name)
		}
	}
}
