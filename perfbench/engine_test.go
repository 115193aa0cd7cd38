package main

import (
	"context"
	"reflect"
	"testing"

	"columbia/internal/sweep"
	"columbia/internal/vmpi"
)

// TestCountingCommIsTransparent runs every engine-ranks case with and
// without the counting decorator: the results must be bit-identical, the
// stored outcome must hold, and the decorator must count exactly the stored
// number of point-to-point messages. anysrc2048 only completes if the
// decorator forwards RecvAny, and ft256's collectives are counted only if it
// forwards par.CollectiveAnnouncer.
func TestCountingCommIsTransparent(t *testing.T) {
	for _, c := range newEngineCases(3) {
		t.Run(c.name, func(t *testing.T) {
			if sweep.RaceEnabled && c.cfg.Procs > 4096 {
				t.Skip("the race runtime cannot hold 8192 live rank goroutines")
			}
			plain, err := vmpi.RunCtx(context.Background(), c.cfg, c.fn)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.check(plain); err != nil {
				t.Fatalf("undecorated: %v", err)
			}
			fn, total := counted(c.fn, c.cfg.Procs)
			decorated, err := vmpi.RunCtx(context.Background(), c.cfg, fn)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.check(decorated); err != nil {
				t.Fatalf("decorated: %v", err)
			}
			if !reflect.DeepEqual(plain, decorated) {
				t.Fatalf("decorated result differs: %+v vs %+v", decorated, plain)
			}
			n := total()
			if n.msgs != c.msgs {
				t.Errorf("counted %d messages, stored %d", n.msgs, c.msgs)
			}
			if c.name == "ft256" && n.collectives == 0 {
				t.Error("no collective announcements counted")
			}
		})
	}
}
