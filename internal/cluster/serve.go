package cluster

import (
	"repro/internal/server"
)

// The cluster implements the server's Backend surface — server.Config's
// Backend field takes a *Cluster as it takes a *gateway.Gateway — so the
// pooled wire client talks to a fleet through the exact same protocol it
// uses against one gateway.
var _ server.Backend = (*Cluster)(nil)
