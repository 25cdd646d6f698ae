package admission

import (
	"fmt"
	"sync/atomic"
)

// Budget is a per-run cap on engine output: rows and bytes charged by
// the batch engine's accounting hook as stages materialize results. A
// flow that crosses either limit fails with a *BudgetError instead of
// growing until the process OOMs — one tenant's runaway join cannot
// take the server down with it.
//
// Budget satisfies the engine's hook interface (batch.Budget)
// structurally, so the engine keeps zero knowledge of this package.
// A nil *Budget charges nothing and never fails.
type Budget struct {
	maxRows, maxBytes int64
	rows, bytes       atomic.Int64
}

// NewBudget builds a budget; a limit <= 0 means unlimited for that
// dimension. NewBudget(0, 0) returns nil — no accounting at all.
func NewBudget(maxRows, maxBytes int64) *Budget {
	if maxRows <= 0 && maxBytes <= 0 {
		return nil
	}
	return &Budget{maxRows: maxRows, maxBytes: maxBytes}
}

// Charge accounts rows and bytes produced by one stage, returning a
// *BudgetError once a limit is crossed. Safe for concurrent use — DAG
// nodes charge from parallel goroutines.
func (b *Budget) Charge(rows, bytes int) error {
	if b == nil {
		return nil
	}
	r := b.rows.Add(int64(rows))
	by := b.bytes.Add(int64(bytes))
	if b.maxRows > 0 && r > b.maxRows {
		return &BudgetError{Kind: "rows", Used: r, Limit: b.maxRows}
	}
	if b.maxBytes > 0 && by > b.maxBytes {
		return &BudgetError{Kind: "bytes", Used: by, Limit: b.maxBytes}
	}
	return nil
}

// BudgetError reports a run that exceeded its row or byte budget.
type BudgetError struct {
	// Kind is "rows" or "bytes".
	Kind string
	// Used and Limit are the charged total and the configured cap.
	Used, Limit int64
}

// Error implements error.
func (e *BudgetError) Error() string {
	return fmt.Sprintf("run budget exceeded: %d %s charged, limit %d", e.Used, e.Kind, e.Limit)
}
