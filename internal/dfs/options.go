package dfs

import "netmem/internal/fstore"

// ServerOption configures NewServer, in the same variadic style as the
// facade's netmem.New.
type ServerOption func(*serverOptions)

type serverOptions struct {
	store    *fstore.Store
	reliable bool
}

// WithStore builds the service over an existing file store — the §3.7
// recovery path: a new server incarnation re-exports fresh cache segments
// over the surviving file system.
func WithStore(st *fstore.Store) ServerOption {
	return func(o *serverOptions) { o.store = st }
}

// WithReliableReplies routes the server's outbound writes — Hybrid-1
// replies and eager attribute pushes — through the reliability layer, for
// deployments whose links lose cells (§3.7). Pair with the clerks'
// WithReliable for a fully retransmitting service.
func WithReliableReplies() ServerOption {
	return func(o *serverOptions) { o.reliable = true }
}

// ClerkOption configures NewClerk.
type ClerkOption func(*clerkOptions)

type clerkOptions struct {
	reliable bool
	fenced   bool
}

// WithReliable routes every clerk→server transfer — cache-area probes,
// block pushes, and Hybrid-1 requests — through the reliability layer
// (at-most-once retransmission, §3.7), so the clerk keeps working over
// links that lose cells. Costs one extra cell on small writes.
func WithReliable() ClerkOption {
	return func(o *clerkOptions) { o.reliable = true }
}

// WithFencing makes every clerk→server descriptor carry the server's
// incarnation epoch (the lease). After a server crash and restart, the
// clerk's operations fail fast with rmem.ErrStaleGeneration — a typed
// signal to rebind — instead of timing out against recycled descriptors.
// Costs two bytes on fenced requests, so the calibrated fault-free
// experiments leave it off.
func WithFencing() ClerkOption {
	return func(o *clerkOptions) { o.fenced = true }
}
