package core

import "testing"

// TestSanitizedExperimentsByteIdentical is the observes-never-perturbs
// acceptance criterion: every registered experiment runs clean under the
// communication sanitizer and renders byte-identical output. The sanitize
// toggle changes each point's fingerprint, so the sanitized pass recomputes
// every sweep point rather than replaying the unsanitized cache.
func TestSanitizedExperimentsByteIdentical(t *testing.T) {
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			if testing.Short() && heavyExperiments[e.ID] {
				t.Skip("heavy experiment in -short mode")
			}
			plain := experimentCSV(e)
			configure(t, RunConfig{Sanitize: true})
			sanitized := experimentCSV(e)
			if plain != sanitized {
				t.Fatalf("%s: sanitizer perturbed output\n--- plain ---\n%s\n--- sanitized ---\n%s",
					e.ID, plain, sanitized)
			}
		})
	}
}
