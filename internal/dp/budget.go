package dp

import (
	"errors"
	"fmt"
	"math"
	"sync"
)

// ErrBudgetExhausted is returned by Budget.Spend when granting the request
// would push cumulative ε past the configured cap (and clamping is either
// disabled or has nothing left to grant).
var ErrBudgetExhausted = errors.New("dp: privacy budget exhausted")

// Budget is a linear-composition privacy accountant for repeated releases
// over the same population. Under sequential composition the ε of k releases
// add, so a deployment that publishes every window must budget a total ε and
// stop (or degrade) once it is spent — dp.Params alone validates a single
// release and enforces nothing across them.
//
// Spend is the only mutating entry point on the release path: each window
// publish spends its per-release ε and the accountant refuses once the cap
// would be exceeded. With clamping enabled the final grant is trimmed to
// whatever remains (a smaller ε, i.e. *more* noise — degrading accuracy, not
// privacy), and only a fully empty budget refuses.
//
// A nil *Budget is valid and unlimited: every Spend grants in full. All
// methods are safe for concurrent use.
type Budget struct {
	mu      sync.Mutex
	cap     float64
	clamp   bool
	spent   float64
	refused uint64
}

// NewBudget returns an accountant with the given total ε cap. When clamp is
// true, a Spend that would overshoot is trimmed to the remaining budget
// instead of refused (callers should log the degradation loudly; the grant
// is still ε-DP, just noisier than requested).
func NewBudget(cap float64, clamp bool) (*Budget, error) {
	if cap <= 0 || math.IsNaN(cap) || math.IsInf(cap, 0) {
		return nil, errors.New("dp: budget cap must be positive and finite")
	}
	return &Budget{cap: cap, clamp: clamp}, nil
}

// Spend requests eps from the budget and returns the ε actually granted.
// The granted value (which equals eps unless clamping trimmed it) is what
// the caller must use as the release's noise parameter. On refusal the
// granted value is 0, the error is ErrBudgetExhausted, and nothing was
// deducted — the caller must not release.
func (b *Budget) Spend(eps float64) (float64, error) {
	if eps <= 0 || math.IsNaN(eps) || math.IsInf(eps, 0) {
		return 0, errors.New("dp: spend epsilon must be positive and finite")
	}
	if b == nil {
		return eps, nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	remaining := b.cap - b.spent
	switch {
	case eps <= remaining:
		b.spent += eps
		return eps, nil
	case b.clamp && remaining > 0:
		b.spent = b.cap
		return remaining, nil
	default:
		b.refused++
		return 0, fmt.Errorf("%w: spent %.6g of cap %.6g, requested %.6g",
			ErrBudgetExhausted, b.spent, b.cap, eps)
	}
}

// Spent returns cumulative ε granted so far (0 for a nil budget).
func (b *Budget) Spent() float64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.spent
}

// Cap returns the configured total ε (+Inf for a nil budget).
func (b *Budget) Cap() float64 {
	if b == nil {
		return math.Inf(1)
	}
	return b.cap
}

// Remaining returns the ε still grantable (+Inf for a nil budget).
func (b *Budget) Remaining() float64 {
	if b == nil {
		return math.Inf(1)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if r := b.cap - b.spent; r > 0 {
		return r
	}
	return 0
}

// Refused returns how many Spend calls were turned away.
func (b *Budget) Refused() uint64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.refused
}

// Restore sets cumulative spend to the given value, capped at cap — the
// checkpoint-recovery path: a restarted server must resume the ledger
// where it left off, or a crash loop would reset the budget and quietly
// break the composition guarantee. A NaN or negative spend can only come
// from a corrupt checkpoint, so it fails closed: the budget restores as
// exhausted rather than refilled.
func (b *Budget) Restore(spent float64) {
	if b == nil {
		return
	}
	if math.IsNaN(spent) || spent < 0 || spent > b.cap {
		spent = b.cap
	}
	b.mu.Lock()
	b.spent = spent
	b.mu.Unlock()
}
