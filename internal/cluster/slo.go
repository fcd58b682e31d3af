package cluster

import "ceresz/internal/telemetry"

// ParseObjectives parses a comma-separated SLO spec list with the same
// grammar as the backend's ("compress:p99<25ms:99.9") and binds each
// objective to the proxy's own proxy.<ep>.* RED instruments
// (telemetry.BindObjectives), so one -slo flag syntax describes either
// tier and the burn-rate machinery runs unchanged on the router. Unknown
// endpoints are an error, matching server.ParseObjectives.
func ParseObjectives(raw string) ([]telemetry.Objective, error) {
	return telemetry.BindObjectives(raw, "proxy", epNames[:])
}
