package core

import (
	"time"

	"livedev/internal/clock"
	"livedev/internal/ifsvr"
)

// The publication store was re-homed into internal/ifsvr so the Interface
// Server's standalone mode could share it (one implementation of the
// watch-liveness rules instead of the old window=0 duplicate, ifsvr's
// memStore). The core package keeps its historical names as aliases: the
// store is still the event-driven publication core every binding publishes
// through, and Manager wires it exactly as before.

// ErrStoreClosed reports an operation on a closed publication store.
var ErrStoreClosed = ifsvr.ErrStoreClosed

type (
	// Store is the versioned interface-document store with epoch-numbered
	// snapshots, subscriber fan-out, edit-storm coalescing, and the
	// epoch-indexed replay journal. See ifsvr.Store.
	Store = ifsvr.Store
	// StoreEvent is one committed publication fanned out to subscribers.
	StoreEvent = ifsvr.StoreEvent
	// StoreStats counts store activity.
	StoreStats = ifsvr.StoreStats
)

// NewStore returns an in-memory store with the given flush window (0
// disables coalescing: every publish commits immediately). clk drives the
// flush timer; nil means the real clock.
func NewStore(window time.Duration, clk clock.Clock) *Store {
	return ifsvr.NewStore(window, clk)
}

type (
	// StoreConfig configures OpenStore; its Dir field (Config.DataDir on a
	// Manager) enables the file persistence backend.
	StoreConfig = ifsvr.StoreConfig
	// Persistence is the pluggable durability backend of a Store.
	Persistence = ifsvr.Persistence
	// PersistentState is the recovered state a Persistence backend loads.
	PersistentState = ifsvr.PersistentState
	// SyncPolicy selects when a durable store fsyncs its write-ahead log.
	SyncPolicy = ifsvr.SyncPolicy
	// PersistStats counts durability-backend activity (log positions,
	// fsyncs, group-commit batching, sync waits).
	PersistStats = ifsvr.PersistStats
)

// The three WAL sync policies; see ifsvr.SyncPolicy.
const (
	SyncNone        = ifsvr.SyncNone
	SyncGroupCommit = ifsvr.SyncGroupCommit
	SyncAlways      = ifsvr.SyncAlways
)

// ParseSyncPolicy parses a -sync flag value ("none", "group", "always").
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	return ifsvr.ParseSyncPolicy(s)
}

// OpenStore opens a store, recovering state from the configured
// persistence backend (if any). See ifsvr.OpenStore.
func OpenStore(cfg StoreConfig) (*Store, error) {
	return ifsvr.OpenStore(cfg)
}
