package cluster

import "testing"

func TestGateSimFabric(t *testing.T) {
	fab := NewSim(DefaultConfig(2))
	g := new(Gate)
	var wakeAt float64
	fab.Run(func(ctx *Ctx) {
		w := ctx.Go("waiter", 0, func(cc *Ctx) {
			g.Wait(cc)
			wakeAt = cc.Now()
		})
		o := ctx.Go("opener", 1, func(cc *Ctx) {
			cc.Sleep(3)
			g.Open(cc)
		})
		ctx.Wait(w)
		ctx.Wait(o)
		// Waiting on an open gate returns immediately.
		g.Wait(ctx)
	})
	if wakeAt != 3 {
		t.Fatalf("waiter woke at %v, want 3", wakeAt)
	}
	if !g.open {
		t.Fatal("gate not opened")
	}
}

func TestGateLiveFabric(t *testing.T) {
	fab := NewLive(2)
	g := new(Gate)
	order := make(chan string, 2)
	fab.Run(func(ctx *Ctx) {
		w := ctx.Go("waiter", 0, func(cc *Ctx) {
			g.Wait(cc)
			order <- "woke"
		})
		o := ctx.Go("opener", 1, func(cc *Ctx) {
			order <- "opening"
			g.Open(cc)
		})
		ctx.Wait(o)
		ctx.Wait(w)
	})
	if first := <-order; first != "opening" {
		t.Fatalf("first event %q, want opening", first)
	}
	// Double open is a no-op.
	fab.Run(func(ctx *Ctx) { g.Open(ctx) })
}
