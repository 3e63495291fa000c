// Package a exercises wirecode on handler registrations.
package a

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"transport"
)

// Req is a request body.
type Req struct{ Q string }

// Resp is a response body.
type Resp struct{ N int }

// Register wires the handlers.
func Register(s *transport.Server) {
	transport.Handle(s, "good", func(ctx context.Context, r Req) (Resp, error) {
		if r.Q == "" {
			return Resp{}, transport.Errf(transport.CodeExec, "empty query")
		}
		return Resp{N: len(r.Q)}, nil
	})
	transport.Handle(s, "bad", func(ctx context.Context, r Req) (Resp, error) {
		return Resp{}, fmt.Errorf("boom: %s", r.Q) // want `fmt.Errorf crosses the wire`
	})
	transport.Handle(s, "bad2", func(ctx context.Context, r Req) (Resp, error) {
		return Resp{}, errors.New("boom") // want `errors.New crosses the wire`
	})
	transport.Handle(s, "named", named)
	// A binary handler returns *transport.Error by type: nothing to check.
	s.HandleV3("codec", func(ctx context.Context, body, out []byte) ([]byte, *transport.Error) {
		return nil, transport.Errf(transport.CodeExec, "codec boom")
	})
	transport.Handle(s, "nested", func(ctx context.Context, r Req) (Resp, error) {
		// The nested literal is not a handler; its returns are free.
		f := func() error { return fmt.Errorf("internal detail") }
		if err := f(); err != nil {
			return Resp{}, transport.Errf(transport.CodeExec, "wrapped: %v", err)
		}
		return Resp{}, nil
	})
	transport.Handle(s, "suppressed", func(ctx context.Context, r Req) (Resp, error) {
		//gridmon:nolint wirecode legacy op, clients only check the message
		return Resp{}, fmt.Errorf("grandfathered")
	})
}

// named is a handler passed by name.
func named(ctx context.Context, r Req) (Resp, error) {
	return Resp{}, fmt.Errorf("named boom") // want `fmt.Errorf crosses the wire`
}

// helper is not a handler: bare errors are fine in ordinary code, and
// the JSON check only applies inside package transport, so this
// marshal is free too.
func helper() error {
	if _, err := json.Marshal(Req{Q: "x"}); err != nil {
		return err
	}
	return fmt.Errorf("not on the wire")
}
