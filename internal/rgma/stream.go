package rgma

import (
	"sync"

	"repro/internal/relational"
)

// R-GMA supports both pull and push: "a user can subscribe to a flow of
// data with specific properties directly from a data source" (the paper,
// Sections 2.2 and 3.7). This file implements the push half: continuous
// queries attached to producers, handed every row as it is published.
// The query itself runs in the subscriber (the gridmon facade runs the
// SELECT a query over the same rows runs).

// Subscription is a continuous query's attachment to producers:
// whenever a subscribed producer publishes rows, they are delivered,
// and the subscriber runs its query over them.
type Subscription struct {
	ID string
	// Deliver receives the published rows; it must not retain the slice.
	Deliver func(producerID string, rows [][]relational.Value)
}

// streamHub fans published rows out to subscribers. Each Producer owns
// one (created by NewProducer). Subscription changes and Publish fan-out
// may run concurrently — e.g. a grid subscribing while its sensors
// refresh — so the subscriber list is mutex-guarded.
type streamHub struct {
	mu   sync.Mutex
	subs []*Subscription // guarded by mu
}

// snapshot copies the subscriber list so fan-out runs without the lock
// (Deliver callbacks may themselves Subscribe/Unsubscribe).
func (h *streamHub) snapshot() []*Subscription {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]*Subscription(nil), h.subs...)
}

// Subscribe attaches a continuous query to the producer. Future Publish
// calls (and Refresh-driven regenerations) deliver matching rows. It is
// safe for concurrent use with Publish.
func (p *Producer) Subscribe(sub *Subscription) {
	p.hub.mu.Lock()
	defer p.hub.mu.Unlock()
	p.hub.subs = append(p.hub.subs, sub)
}

// Unsubscribe detaches the subscription, reporting whether it was
// attached. It is safe for concurrent use with Publish.
func (p *Producer) Unsubscribe(id string) bool {
	p.hub.mu.Lock()
	defer p.hub.mu.Unlock()
	for i, s := range p.hub.subs {
		if s.ID == id {
			p.hub.subs = append(p.hub.subs[:i], p.hub.subs[i+1:]...)
			return true
		}
	}
	return false
}

// Subscribers reports the number of attached continuous queries.
func (p *Producer) Subscribers() int {
	p.hub.mu.Lock()
	defer p.hub.mu.Unlock()
	return len(p.hub.subs)
}

// publish fans newly published rows out to subscribers.
func (p *Producer) publish(rows [][]relational.Value) {
	if len(rows) == 0 {
		return
	}
	for _, sub := range p.hub.snapshot() {
		sub.Deliver(p.ID, rows)
	}
}
