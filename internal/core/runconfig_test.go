package core

import (
	"sync"
	"testing"

	"columbia/internal/fault"
)

// configure installs rc for the rest of the test and restores the previous
// run configuration on cleanup, so test order never matters.
func configure(t *testing.T, rc RunConfig) {
	t.Helper()
	prev := Configure(rc)
	t.Cleanup(func() { Configure(prev) })
}

// TestRunConfigConfigureNeverSplits: readers racing a stream of Configure
// calls always load one whole installed value, never the fields of two, and
// Configure hands back exactly what it replaced.
func TestRunConfigConfigureNeverSplits(t *testing.T) {
	a := RunConfig{Faults: fault.New().SlowNode(0, 1.5), Replicas: 3}
	b := RunConfig{Sanitize: true, Replicas: 5}
	configure(t, a)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if rc := Current(); rc != a && rc != b {
					t.Errorf("Current() = %+v, a mix of two installed configs", rc)
					return
				}
			}
		}()
	}
	for i := 0; i < 1000; i++ {
		next, want := b, a
		if i%2 == 1 {
			next, want = a, b
		}
		if prev := Configure(next); prev != want {
			t.Errorf("Configure returned %+v, want the replaced %+v", prev, want)
		}
	}
	close(stop)
	wg.Wait()
}
