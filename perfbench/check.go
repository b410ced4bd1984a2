package main

import (
	"fmt"

	"prio/internal/ingest"
	"prio/internal/window"
)

// tally is the ledger of one deployment's submissions.
type tally struct {
	submitted, honest, invalid uint64
	accepted, rejected, failed uint64
	truth                      []uint64 // Σ contrib over the accepted entries
}

// checkLedger maps every ack back to its pool entry and requires the exact
// accept set: every honest submission accepted, every invalid one rejected,
// each send acked once, and submitted = accepted + rejected + failed.
func checkLedger(items []item, logs []sendLog) (tally, error) {
	var t tally
	if len(items) > 0 {
		t.truth = make([]uint64, len(items[0].contrib))
	}
	for s, l := range logs {
		seen := make([]bool, l.sent)
		for k := 0; k < l.sent; k++ {
			if items[l.index(k)].valid {
				t.honest++
			} else {
				t.invalid++
			}
		}
		t.submitted += uint64(l.sent)
		for _, a := range l.acks {
			k := int(a.id) - 1
			if k < 0 || k >= l.sent || seen[k] {
				return t, fmt.Errorf("stream %d: unexpected or repeated ack for id %d", s, a.id)
			}
			seen[k] = true
			it := items[l.index(k)]
			switch a.status {
			case ingest.StatusAccepted:
				if !it.valid {
					return t, fmt.Errorf("stream %d: invalid pool entry %d accepted", s, l.index(k))
				}
				t.accepted++
				for j, v := range it.contrib {
					t.truth[j] += v
				}
			case ingest.StatusRejected:
				if it.valid {
					return t, fmt.Errorf("stream %d: honest pool entry %d rejected", s, l.index(k))
				}
				t.rejected++
			default:
				t.failed++
			}
		}
	}
	if t.submitted != t.accepted+t.rejected+t.failed {
		return t, fmt.Errorf("ledger open: %d submitted, %d accepted + %d rejected + %d failed",
			t.submitted, t.accepted, t.rejected, t.failed)
	}
	if t.accepted != t.honest || t.rejected != t.invalid {
		return t, fmt.Errorf("accept set: %d/%d honest accepted, %d/%d invalid rejected, %d failed",
			t.accepted, t.honest, t.rejected, t.invalid, t.failed)
	}
	return t, nil
}

// checkAggregate requires the decoded all-time aggregate over n clients to
// equal the ledger's ground truth.
func checkAggregate(t tally, got []uint64, n uint64) error {
	if n != t.accepted {
		return fmt.Errorf("aggregate covers %d clients, %d accepted", n, t.accepted)
	}
	if len(got) != len(t.truth) {
		return fmt.Errorf("aggregate has %d components, want %d", len(got), len(t.truth))
	}
	for j := range got {
		if got[j] != t.truth[j] {
			return fmt.Errorf("aggregate component %d is %d, ground truth %d", j, got[j], t.truth[j])
		}
	}
	return nil
}

// checkWindows requires every published window to be consistent across the
// roster and noised, and their counts to sum to the accepted acks.
func checkWindows(t tally, recs []window.Record) error {
	var n uint64
	for _, r := range recs {
		if !r.Consistent {
			return fmt.Errorf("window %d inconsistent: counts %v", r.ID, r.Counts)
		}
		if !r.Noised {
			return fmt.Errorf("window %d published without noise", r.ID)
		}
		n += r.Count
	}
	if n != t.accepted {
		return fmt.Errorf("published windows count %d clients, %d accepted", n, t.accepted)
	}
	return nil
}
