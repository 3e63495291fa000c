// Package transport is a stub of the repo's transport package: just
// enough surface for wirecode to recognize handler registrations.
package transport

import (
	"context"
	"fmt"
)

// Server registers ops.
type Server struct{}

// Code classifies a failure.
type Code string

// CodeExec is the catch-all failure code.
const CodeExec Code = "exec_error"

// Error is a structured failure.
type Error struct {
	Code    Code
	Message string
}

func (e *Error) Error() string { return e.Message }

// Errf builds a coded error.
func Errf(code Code, format string, args ...interface{}) *Error {
	return &Error{Code: code, Message: fmt.Sprintf(format, args...)}
}

// Handle registers a typed handler.
func Handle[Req, Resp any](s *Server, op string, fn func(context.Context, Req) (Resp, error)) {}

// V3Handler is a binary codec.
type V3Handler func(ctx context.Context, body, out []byte) ([]byte, *Error)

// HandleV3 registers a binary call handler.
func (s *Server) HandleV3(op string, h V3Handler) {}
