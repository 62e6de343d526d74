package core

import "livedev/internal/ifsvr"

// SyncPolicy selects when a durable store fsyncs its write-ahead log
// (Config.Sync). See ifsvr.SyncPolicy.
type SyncPolicy = ifsvr.SyncPolicy

// The three WAL sync policies; see ifsvr.SyncPolicy.
const (
	SyncNone        = ifsvr.SyncNone
	SyncGroupCommit = ifsvr.SyncGroupCommit
	SyncAlways      = ifsvr.SyncAlways
)
