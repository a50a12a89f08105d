package par

import "fmt"

// ErrCanceled is the typed cancellation error returned by the
// ctx-aware checkers and the adversary (sortcheck.ZeroOneCtx,
// halver.EpsilonCtx, core.Theorem41Ctx, ...) when their context is
// canceled or its deadline expires. Instead of discarding the work
// done so far it carries the partial progress, so CLIs can journal
// "how far we got" and print a truncated-but-honest summary.
//
// Unwrap returns the underlying context error, so
// errors.Is(err, context.DeadlineExceeded) distinguishes a timeout
// from an interrupt, and errors.As(err, &ce) recovers the progress.
type ErrCanceled struct {
	// Op names the operation that was cut short (e.g. "core.Theorem41").
	Op string
	// Cause is the context's error: context.Canceled or
	// context.DeadlineExceeded.
	Cause error
	// BlocksDone counts adversary blocks fully completed, or blocks
	// of an iterated network decomposed, before the cancellation was
	// observed (0 for the checkers).
	BlocksDone int
	// MasksChecked counts 0-1 inputs settled before the cancellation
	// was observed — for a scan of a first level's image, the inputs
	// its finished blocks stand for — a lower bound, since in-flight
	// chunks are abandoned without reporting (0 for the adversary and
	// the decomposition).
	MasksChecked int64
	// Survivors is the adversary's current surviving-set size |D|
	// (the result of the last completed block; 0 for the checkers).
	Survivors int
}

func (e *ErrCanceled) Error() string {
	return fmt.Sprintf("%s canceled: %v (blocks_done=%d masks_checked=%d survivors=%d)",
		e.Op, e.Cause, e.BlocksDone, e.MasksChecked, e.Survivors)
}

// Unwrap exposes the context error for errors.Is.
func (e *ErrCanceled) Unwrap() error { return e.Cause }

// Fields returns the journal-ready partial-progress map recorded by
// the CLIs under the entry's "partial" key. The schema is fixed (all
// fields always present) so journal consumers need no case analysis.
func (e *ErrCanceled) Fields() map[string]any {
	cause := ""
	if e.Cause != nil {
		cause = e.Cause.Error()
	}
	return map[string]any{
		"op":            e.Op,
		"cause":         cause,
		"blocks_done":   e.BlocksDone,
		"masks_checked": e.MasksChecked,
		"survivors":     e.Survivors,
	}
}
