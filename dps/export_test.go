package dps

import "repro/internal/core"

// EngineConfig is the core.Config opts build, for the external tests.
func EngineConfig(opts ...Option) (core.Config, error) {
	cfg, err := buildConfig(opts)
	if err != nil {
		return core.Config{}, err
	}
	return cfg.engine, nil
}
