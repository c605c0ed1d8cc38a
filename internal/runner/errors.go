package runner

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/fault"
	"repro/internal/precision"
)

// ErrNumericalFailure re-exports the solvers' numerical-guard sentinel at
// the layer that serves experiments: errors.Is(err, ErrNumericalFailure)
// identifies failures the precision-escalation ladder can cure.
var ErrNumericalFailure = precision.ErrNumericalFailure

// Kind classifies a failed run for the serving layer's retry policy. The
// classification decides what a retry can buy: nothing (Permanent), the
// same run again (Transient), nothing within this job's budget (Timeout),
// or the same problem at the next precision rung (Numerical).
type Kind int

const (
	// KindPermanent failures are deterministic and retry-proof: invalid
	// specs, incompatible checkpoints, marshalling bugs.
	KindPermanent Kind = iota
	// KindTransient failures are environmental — injected faults, I/O
	// hiccups, cancelled-by-shutdown — and worth retrying with backoff.
	KindTransient
	// KindTimeout marks a run that exceeded its deadline; its lanes must be
	// handed to the next job, not burned on a rerun of the same budget.
	KindTimeout
	// KindNumerical marks a numerical-guard abort; the escalation ladder
	// (precision.Mode.Next) may cure it.
	KindNumerical
)

// String names the kind for logs and stats.
func (k Kind) String() string {
	switch k {
	case KindTransient:
		return "transient"
	case KindTimeout:
		return "timeout"
	case KindNumerical:
		return "numerical"
	default:
		return "permanent"
	}
}

// ParseKind inverts String for a classification that crossed the wire (a
// worker reporting a failed run). Anything unrecognized degrades to
// transient: retried, never silently dropped.
func ParseKind(s string) Kind {
	for _, k := range []Kind{KindPermanent, KindTimeout, KindNumerical} {
		if s == k.String() {
			return k
		}
	}
	return KindTransient
}

// Error is the typed failure Run returns and the queue's retry policy
// consumes: a kind, the failing operation, and the cause.
type Error struct {
	Kind Kind
	Op   string
	Err  error
}

// Error formats "runner: <op>: <cause> [<kind>]".
func (e *Error) Error() string {
	return fmt.Sprintf("runner: %s: %v [%s]", e.Op, e.Err, e.Kind)
}

// Unwrap exposes the cause for errors.Is/As.
func (e *Error) Unwrap() error { return e.Err }

// Classify maps any error onto a Kind. A wrapped *Error keeps its explicit
// kind; otherwise the sentinels decide: numerical-guard aborts escalate,
// deadline expiry is a timeout, cancellation and injected faults are
// transient, and everything else — notably invalid specs — is permanent
// and never retried.
func Classify(err error) Kind {
	var re *Error
	if errors.As(err, &re) {
		return re.Kind
	}
	switch {
	case errors.Is(err, precision.ErrNumericalFailure):
		return KindNumerical
	case errors.Is(err, context.DeadlineExceeded):
		return KindTimeout
	case errors.Is(err, context.Canceled):
		return KindTransient
	case errors.Is(err, fault.ErrInjected):
		return KindTransient
	default:
		return KindPermanent
	}
}

// wrapRunError types an execution failure by its sentinel classification.
func wrapRunError(op string, err error) error {
	return &Error{Kind: Classify(err), Op: op, Err: err}
}

// Escalation records one precision-escalation retry: the rung that failed,
// the rung the job was re-run at, the content address of the spec as it was
// originally submitted at the failing rung, and the guard failure that
// forced the climb. Stored in the result so a cache entry keyed by the
// submitted (lower-precision) spec honestly reports that its payload was
// computed one rung up.
type Escalation struct {
	FromMode     string `json:"from_mode"`
	ToMode       string `json:"to_mode"`
	FromSpecHash string `json:"from_spec_hash"`
	Reason       string `json:"reason"`
}
