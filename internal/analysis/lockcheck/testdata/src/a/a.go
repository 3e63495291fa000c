// Package a exercises lockcheck: guarded-field accesses with and
// without the guarding mutex held.
package a

import "sync"

// Counter has one guarded field and one free field.
type Counter struct {
	mu sync.RWMutex
	// count is guarded by mu.
	count int
	name  string // unguarded: free access
}

// Good locks before touching count.
func (c *Counter) Good() {
	c.mu.Lock()
	c.count++
	c.mu.Unlock()
}

// GoodRead uses the read lock.
func (c *Counter) GoodRead() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.count
}

// Bad touches count without the lock.
func (c *Counter) Bad() {
	c.count++ // want `count is guarded by mu`
}

// BadRead reads count without the lock; reads need the lock too.
func (c *Counter) BadRead() int {
	return c.count // want `count is guarded by mu`
}

// Name touches only the unguarded field.
func (c *Counter) Name() string { return c.name }

// bump increments. Callers hold mu.
func (c *Counter) bump() {
	c.count++
}

// lockForRead takes the read lock and returns the unlock.
// locks mu
func (c *Counter) lockForRead() func() {
	c.mu.RLock()
	return c.mu.RUnlock
}

// ViaHelper holds the lock through the annotated helper.
func (c *Counter) ViaHelper() int {
	defer c.lockForRead()()
	return c.count
}

// New builds a Counter; accesses through the fresh local are allowed.
func New(n int) *Counter {
	c := &Counter{}
	c.count = n
	return c
}

// Reset writes through a parameter, which is not fresh.
func Reset(c *Counter) {
	c.count = 0 // want `count is guarded by mu`
}

// Suppressed shows the escape hatch.
func Suppressed(c *Counter) int {
	//gridmon:nolint lockcheck single-goroutine test helper
	return c.count
}

// Outer guards a field of a nested struct from the outside.
type Outer struct {
	mu  sync.Mutex
	hub *Hub
}

// Hub is locked by its own mutex.
type Hub struct {
	mu sync.Mutex
	// subs is guarded by mu.
	subs []int
}

// AddSub locks the hub's own mutex through a field chain.
func (o *Outer) AddSub(n int) {
	o.hub.mu.Lock()
	o.hub.subs = append(o.hub.subs, n)
	o.hub.mu.Unlock()
}

// WrongLock locks the outer mutex, not the one guarding subs.
func (o *Outer) WrongLock(n int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.hub.subs = append(o.hub.subs, n) // want `subs is guarded by mu` `subs is guarded by mu`
}

// Typo has an annotation naming a mutex that does not exist.
type Typo struct {
	mu sync.Mutex
	// n is guarded by mux.
	n int // want `no field named mux`
}

// Table is generic: a use sees an instantiated field, checked as the
// declared one.
type Table[K comparable, V any] struct {
	mu sync.RWMutex
	m  map[K]V // guarded by mu
}

// Put writes m without the lock.
func (t *Table[K, V]) Put(k K, v V) {
	t.m[k] = v // want `m is guarded by mu`
}

// Lookup locks an instantiation before reading it.
func Lookup(t *Table[string, int], b []byte) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.m[string(b)]
}
