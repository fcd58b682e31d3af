package server

import "ceresz/internal/telemetry"

// ParseObjectives parses a comma-separated SLO spec list
// ("compress:p99<25ms:99.9,decompress:err:99.95") and binds each objective
// to the endpoint's server.<ep>.* instruments (telemetry.BindObjectives).
// Unknown endpoints are an error.
func ParseObjectives(raw string) ([]telemetry.Objective, error) {
	return telemetry.BindObjectives(raw, "server", epNames[:])
}
