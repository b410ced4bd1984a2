package dp

import (
	"errors"
	"math"
	"sync"
	"testing"
)

func TestBudgetSpendRefuse(t *testing.T) {
	b, err := NewBudget(1.0, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		got, err := b.Spend(0.25)
		if err != nil || got != 0.25 {
			t.Fatalf("spend %d: got %v, %v", i, got, err)
		}
	}
	if got := b.Spent(); got != 1.0 {
		t.Fatalf("Spent = %v, want 1.0", got)
	}
	if got := b.Remaining(); got != 0 {
		t.Fatalf("Remaining = %v, want 0", got)
	}
	got, err := b.Spend(0.25)
	if !errors.Is(err, ErrBudgetExhausted) || got != 0 {
		t.Fatalf("over-cap spend: got %v, %v; want 0, ErrBudgetExhausted", got, err)
	}
	if b.Refused() != 1 {
		t.Fatalf("Refused = %d, want 1", b.Refused())
	}
	// Refusal deducted nothing.
	if b.Spent() != 1.0 {
		t.Fatalf("Spent after refusal = %v, want 1.0", b.Spent())
	}
}

func TestBudgetClampTrimsFinalGrant(t *testing.T) {
	b, err := NewBudget(1.0, true)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := b.Spend(0.8); err != nil || got != 0.8 {
		t.Fatalf("first spend: %v, %v", got, err)
	}
	// Overshooting request is trimmed to the remainder, not refused.
	got, err := b.Spend(0.8)
	if err != nil {
		t.Fatalf("clamped spend errored: %v", err)
	}
	if math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("clamped grant = %v, want 0.2", got)
	}
	// Now truly empty: even clamp mode refuses.
	if _, err := b.Spend(0.1); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("empty clamp spend: err = %v, want ErrBudgetExhausted", err)
	}
	if b.Refused() != 1 {
		t.Fatalf("Refused = %d, want 1", b.Refused())
	}
}

func TestBudgetNilUnlimited(t *testing.T) {
	var b *Budget
	got, err := b.Spend(5)
	if err != nil || got != 5 {
		t.Fatalf("nil spend: %v, %v", got, err)
	}
	if !math.IsInf(b.Cap(), 1) || !math.IsInf(b.Remaining(), 1) {
		t.Fatal("nil budget should be unlimited")
	}
	if b.Spent() != 0 || b.Refused() != 0 {
		t.Fatal("nil budget tracks nothing")
	}
	b.Restore(3) // must not panic
}

func TestBudgetRejectsBadInputs(t *testing.T) {
	if _, err := NewBudget(0, false); err == nil {
		t.Error("zero cap accepted")
	}
	if _, err := NewBudget(math.Inf(1), false); err == nil {
		t.Error("infinite cap accepted")
	}
	b, _ := NewBudget(1, false)
	for _, eps := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := b.Spend(eps); err == nil {
			t.Errorf("Spend(%v) accepted", eps)
		}
	}
	if b.Spent() != 0 {
		t.Fatalf("bad spends deducted budget: %v", b.Spent())
	}
}

func TestBudgetRestore(t *testing.T) {
	b, _ := NewBudget(2.0, false)
	b.Restore(1.5)
	if b.Spent() != 1.5 {
		t.Fatalf("Spent = %v, want 1.5", b.Spent())
	}
	if _, err := b.Spend(1.0); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("restored ledger did not enforce cap: %v", err)
	}
	if got, err := b.Spend(0.5); err != nil || got != 0.5 {
		t.Fatalf("spend within restored remainder: %v, %v", got, err)
	}
	// Out-of-range restores clamp rather than corrupt the ledger.
	b.Restore(99)
	if b.Spent() != 2.0 {
		t.Fatalf("over-cap restore: Spent = %v, want 2.0", b.Spent())
	}
	// A corrupt spend fails closed: the budget restores exhausted.
	for _, bad := range []float64{-1, math.NaN()} {
		b.Restore(0.5)
		b.Restore(bad)
		if b.Spent() != 2.0 {
			t.Fatalf("Restore(%v): Spent = %v, want the cap 2.0", bad, b.Spent())
		}
		if _, err := b.Spend(0.1); !errors.Is(err, ErrBudgetExhausted) {
			t.Fatalf("Restore(%v) left budget spendable: %v", bad, err)
		}
	}
}

func TestBudgetConcurrentSpendNeverOvershoots(t *testing.T) {
	b, _ := NewBudget(10.0, false)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var granted float64
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if g, err := b.Spend(0.05); err == nil {
					mu.Lock()
					granted += g
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if granted > 10.0+1e-9 {
		t.Fatalf("granted %v past cap 10", granted)
	}
	if math.Abs(b.Spent()-granted) > 1e-9 {
		t.Fatalf("ledger %v != granted %v", b.Spent(), granted)
	}
}
