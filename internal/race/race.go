//go:build race

// Package race reports whether the binary was built with the race
// detector, mirroring the runtime-internal convention. Heavyweight
// end-to-end tests consult Enabled to skip full-model builds that take
// minutes a package under instrumentation; the concurrent components themselves (bipartite projection, x-means
// workers) have fast package-level tests that always run under -race.
package race

// Enabled is true when the build has race detection instrumentation.
const Enabled = true
