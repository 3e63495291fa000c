package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"

	"repro/internal/binenc"
)

// Code classifies a failure so clients can react programmatically
// (and CLI tools can map it to an exit status).
type Code string

// The error codes.
const (
	// CodeBadRequest: the request body did not decode into the op's
	// request type.
	CodeBadRequest Code = "bad_request"
	// CodeUnknownOp: no handler is registered for the op (see the
	// "ops.list" introspection op for the registered names).
	CodeUnknownOp Code = "unknown_op"
	// CodeParse: a query expression failed to parse (LDAP filter, SQL,
	// ClassAd constraint).
	CodeParse Code = "parse_error"
	// CodeExec: the handler ran and failed.
	CodeExec Code = "exec_error"
	// CodeUnavailable: the target system or component is not deployed on
	// this server.
	CodeUnavailable Code = "unavailable"
	// CodeDeadline: the caller's deadline expired before the handler
	// finished (or before it started).
	CodeDeadline Code = "deadline_exceeded"
	// CodeCanceled: the caller cancelled the request (context.Canceled,
	// not a deadline).
	CodeCanceled Code = "canceled"
	// CodeOverloaded: the server's admission control shed the request —
	// it was over the concurrency limit and the wait queue was full (or
	// the queue wait timed out). The request did no work; a retry after
	// backoff is safe for idempotent ops.
	CodeOverloaded Code = "overloaded"
	// CodeProtocol: the peer broke the wire protocol (a response frame the
	// client cannot parse, a frame kind it does not know).
	CodeProtocol Code = "protocol_mismatch"
	// CodeDegraded: a federation aggregator could not assemble a complete
	// answer — every branch failed, or one did under the fail-fast
	// policy. The message names the failed branches; under best-effort a
	// partial answer is returned as data instead (ResultSet.Partial with
	// per-branch metadata), not as this error. The aggregator already
	// retried within its branch budgets, so blind client retries are not
	// useful; re-query when the tree heals (see ClientStats breaker
	// state).
	CodeDegraded Code = "degraded"
	// CodeInternal: the server failed to encode its own response.
	CodeInternal Code = "internal"
)

// Error is a structured failure.
type Error struct {
	Code    Code   `json:"code"`
	Message string `json:"message"`
}

func (e *Error) Error() string { return fmt.Sprintf("%s [%s]", e.Message, e.Code) }

// Is makes errors.Is match structured errors by code: a target *Error
// with an empty Message matches any error carrying the same Code, so a
// package can export one canonical instance per failure class (e.g.
// gridmon.ErrOverloaded) and callers write errors.Is(err, that) instead
// of comparing codes by hand. A target with a Message requires an exact
// match of both fields.
func (e *Error) Is(target error) bool {
	t, ok := target.(*Error)
	if !ok {
		return false
	}
	return e.Code == t.Code && (t.Message == "" || t.Message == e.Message)
}

// Errf builds a coded error.
func Errf(code Code, format string, args ...interface{}) *Error {
	return &Error{Code: code, Message: fmt.Sprintf(format, args...)}
}

// ErrorCode extracts the structured code from err, defaulting to
// CodeExec for plain errors and CodeDeadline for context expiry.
func ErrorCode(err error) Code { return AsError(err).Code }

// errMalformed is what a body that does not decode (binenc.ErrMalformed)
// reaches the peer as. A shared instance keeps the error path off the
// decode hot path's allocation budget.
var errMalformed = &Error{Code: CodeBadRequest, Message: "transport: truncated or malformed binary frame"}

// AsError coerces any error to a structured *Error: structured errors
// pass through; a body that ran off its frame maps to CodeBadRequest;
// context expiry and socket-deadline timeouts (the form a client's armed
// conn deadline surfaces as) map to CodeDeadline; everything else to
// CodeExec. A nil error yields a zero-code *Error,
// so ErrorCode(nil) == "" rather than panicking.
func AsError(err error) *Error {
	if err == nil {
		return &Error{}
	}
	var e *Error
	if errors.As(err, &e) {
		return e
	}
	if errors.Is(err, binenc.ErrMalformed) {
		return errMalformed
	}
	if errors.Is(err, context.Canceled) {
		return &Error{Code: CodeCanceled, Message: err.Error()}
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, os.ErrDeadlineExceeded) {
		return &Error{Code: CodeDeadline, Message: err.Error()}
	}
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() {
		return &Error{Code: CodeDeadline, Message: err.Error()}
	}
	return &Error{Code: CodeExec, Message: err.Error()}
}
