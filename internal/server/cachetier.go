package server

import (
	"bioperf5/internal/cas"
	"bioperf5/internal/sched"
	"bioperf5/internal/trace"
)

// registerCacheTier mounts the shared cache tier: GET/PUT
// /v1/cache/{key} for content-addressed simulation results and GET/PUT
// /v1/traces/{key} for captured instruction traces, each derived from
// its payload's cas.Kind and counted under server.cache.* and
// server.traces.*.  A server with these endpoints is a cache hub a
// fleet of workers shares (via sched.Options.CacheUpstream), so one
// node's compute or capture is every node's hit.  Results need a
// -cache-dir to be kept; traces also live in the store's memory tier.
func (s *Server) registerCacheTier() {
	cas.Register(s.mux, sched.EntryKind, s.eng.Results(), s.reg, "server", s.errorJSON)
	cas.Register(s.mux, trace.FileKind, s.eng.TraceStore(), s.reg, "server", s.errorJSON)
}
