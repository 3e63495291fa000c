package gridmon

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/binenc"
	"repro/internal/core"
)

// EventKind classifies what a stream event reports.
type EventKind string

// The event kinds. Put carries new or changed records, Delete the keys
// of records that vanished (MDS watchers only: each poll's answer is
// diffed with the last one on its records' bytes), and Trigger the
// record that matched a Hawkeye trigger constraint.
const (
	EventPut     EventKind = "put"
	EventDelete  EventKind = "delete"
	EventTrigger EventKind = "trigger"
)

// Event is one typed delivery on a Stream. Events survive a JSON round
// trip unchanged, so a remote subscriber observes the same sequence —
// including Seq numbers, which the serving grid assigns — as an
// in-process one.
type Event struct {
	// Seq numbers events within one subscription, starting at 1. Dropped
	// events (see ErrLagged) consume sequence numbers, so a gap in Seq
	// identifies exactly where a lagging consumer lost data.
	Seq uint64 `json:"seq"`
	// Time is the grid-clock instant the event was generated at.
	Time float64 `json:"time"`
	// Kind is Put, Delete or Trigger.
	Kind EventKind `json:"kind"`
	// Records carries the event's records (keys only for Delete),
	// decoded by Next from the record section its source rendered; a
	// retained Record keeps that section, or on a remote stream its
	// batch's one copy, alive (see Next).
	Records []Record `json:"records"`
	// Work quantifies what the source did to produce the event.
	Work Work `json:"work"`
}

// ErrLagged reports that a slow consumer fell behind its stream's
// bounded buffer and events were dropped. Test with errors.Is; the
// concrete *LagError carries the drop count.
var ErrLagged = errors.New("gridmon: subscriber lagged, events dropped")

// ErrStreamClosed is returned by Next after Close.
var ErrStreamClosed = errors.New("gridmon: stream closed")

// event is an Event as a Stream holds it, its record section undecoded
// until Next: in process, the one copy send made of what the source
// rendered; on a remote stream, a view of the one copy of its batch. A
// serving pump appends it to the wire as it is.
type event struct {
	seq  uint64
	time float64
	kind EventKind
	sec  string
	work Work
}

// decode is the Event ev is, its Records cut from ev's section.
func (ev *event) decode() Event {
	d := binenc.NewDecString(ev.sec)
	return Event{Seq: ev.seq, Time: ev.time, Kind: ev.kind, Records: core.DecodeRecords(&d), Work: ev.work}
}

// LagError is the concrete lag report: Dropped events were discarded
// since the previous Next call. errors.Is(err, ErrLagged) matches it.
type LagError struct{ Dropped uint64 }

func (e *LagError) Error() string {
	return fmt.Sprintf("gridmon: subscriber lagged, %d event(s) dropped", e.Dropped)
}

// Is makes errors.Is(err, ErrLagged) true for *LagError.
func (e *LagError) Is(target error) bool { return target == ErrLagged }

// Stream delivers a subscription's events in order. The buffer is
// bounded (Subscription.Buffer, default DefaultStreamBuffer): when the
// consumer falls behind, new events are dropped rather than queued
// without limit, and the next Next call reports the loss once as a
// *LagError before resuming delivery. Streams are safe for one consumer
// goroutine; producers (the grid's sources) run concurrently.
type Stream struct {
	sub Subscription

	ch      chan event
	stopped chan struct{} // closed by Close: the consumer hung up

	mu       sync.Mutex
	seq      uint64 // last assigned sequence number (in-process streams)
	lagPend  uint64 // drops not yet reported through Next
	lagTotal uint64
	done     chan struct{} // closed by terminate: no more events
	err      error         // terminal error, set before done closes
}

func newStream(sub Subscription, buffer int) *Stream {
	return &Stream{
		sub:     sub,
		ch:      make(chan event, buffer),
		stopped: make(chan struct{}),
		done:    make(chan struct{}),
	}
}

// Subscription returns the subscription this stream serves.
func (s *Stream) Subscription() Subscription { return s.sub }

// Buffer reports the stream's effective bounded-buffer capacity.
func (s *Stream) Buffer() int { return cap(s.ch) }

// send emits an in-process source's event. sec is the record section
// the source rendered, in scratch it goes on using: the event keeps one
// copy of it.
func (s *Stream) send(time float64, kind EventKind, sec []byte, work Work) {
	s.emit(event{time: time, kind: kind, sec: string(sec), work: work})
}

// emit buffers ev or — when the consumer has let the buffer fill —
// drops it and counts the loss. An event with no sequence number yet
// (an in-process source's) takes the next one; a remote stream's keep
// the server's numbering.
func (s *Stream) emit(ev event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ev.seq == 0 {
		s.seq++
		ev.seq = s.seq
	}
	select {
	case <-s.done:
		return
	default:
	}
	select {
	case s.ch <- ev:
	default:
		s.lagPend++
		s.lagTotal++
	}
}

// addDrops merges a drop count reported by an upstream stream (the
// serving grid's own buffer, for remote subscriptions).
func (s *Stream) addDrops(n uint64) {
	s.mu.Lock()
	s.lagPend += n
	s.lagTotal += n
	s.mu.Unlock()
}

// terminate marks the stream over with err as the terminal error;
// already-buffered events remain readable. Idempotent: the first caller
// wins.
func (s *Stream) terminate(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-s.done:
		return
	default:
	}
	if err == nil {
		err = ErrStreamClosed
	}
	s.err = err
	close(s.done)
}

// Next returns the next event. When the consumer has lagged and events
// were dropped since the previous call, Next first returns a *LagError
// carrying the drop count (errors.Is(err, ErrLagged)), then resumes
// delivering buffered events. After the subscription ends — the
// subscribe context was cancelled, Close was called, or a remote
// connection failed — Next drains the remaining buffered events and then
// returns the terminal error.
//
// Next decodes the event's Records out of its record section, and their
// strings are cut from the text that section lies in: in process, the
// event's own copy of what its source rendered; on a remote v3 stream,
// one copy of the event batch (up to 32 events) the event arrived in. So
// a retained Record keeps its event's section, or its whole batch,
// alive; clone the strings to keep a few fields of a large stream for
// long.
func (s *Stream) Next(ctx context.Context) (Event, error) {
	ev, dropped, err := s.next(ctx)
	switch {
	case dropped > 0:
		return Event{}, &LagError{Dropped: dropped}
	case err != nil:
		return Event{}, err
	}
	return ev.decode(), nil
}

// next is Next undecoded: a pending lag report (dropped > 0), else the
// next event, else the error Next returns. With ctx done it takes only
// what is already there, as the v3 subscribe pump does to coalesce
// buffered events into one batched frame.
func (s *Stream) next(ctx context.Context) (event, uint64, error) {
	s.mu.Lock()
	dropped := s.lagPend
	s.lagPend = 0
	s.mu.Unlock()
	if dropped > 0 {
		return event{}, dropped, nil
	}
	// Prefer buffered events over termination, so a closing stream still
	// delivers what it already accepted.
	select {
	case ev := <-s.ch:
		return ev, 0, nil
	default:
	}
	select {
	case ev := <-s.ch:
		return ev, 0, nil
	case <-ctx.Done():
		return event{}, 0, ctx.Err()
	case <-s.done:
		select {
		case ev := <-s.ch:
			return ev, 0, nil
		default:
		}
		s.mu.Lock()
		err := s.err
		s.mu.Unlock()
		return event{}, 0, err
	}
}

// Dropped reports the total number of events dropped over the stream's
// lifetime (including drops already surfaced through lag errors).
func (s *Stream) Dropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lagTotal
}

// Err returns the stream's terminal error, or nil while it is live.
func (s *Stream) Err() error {
	select {
	case <-s.done:
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.err
	default:
		return nil
	}
}

// Close ends the subscription from the consumer side: sources are
// detached (for a remote stream, a cancel frame is sent) and Next
// returns ErrStreamClosed after the buffer drains. Idempotent.
func (s *Stream) Close() error {
	s.mu.Lock()
	select {
	case <-s.stopped:
		s.mu.Unlock()
		return nil
	default:
		close(s.stopped)
	}
	s.mu.Unlock()
	return nil
}
