package plaxton

import (
	"bytes"
	"log/slog"
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/wire"
)

// The decode discipline: a routed payload is decoded at most once per
// hop and never at an origin that is not also the root. The forward hook
// at hop 0 sees the caller's own value, and the root's hook and deliver
// handler share one decode.

// payloadDecodes snapshots every node's PayloadDecodes counter.
func (r *ring) payloadDecodes() map[ids.ID]uint64 {
	out := make(map[ids.ID]uint64, len(r.overlays))
	for _, o := range r.overlays {
		out[o.ID()] = o.Stats().PayloadDecodes
	}
	return out
}

// remoteKey returns a key whose root is not src.
func (r *ring) remoteKey(rng *rand.Rand, src *Overlay) ids.ID {
	for {
		if key := ids.Random(rng); r.trueRoot(key) != src.ID() {
			return key
		}
	}
}

func TestRouteDecodesAtMostOncePerHop(t *testing.T) {
	const n = 32
	// Small leaf sets force multi-hop routes.
	r := buildRing(t, 11, n, Options{HeartbeatInterval: -1, LeafHalf: 2})
	rng := rand.New(rand.NewSource(12))
	var got *RouteInfo
	hooked := make(map[ids.ID]int)
	for _, o := range r.overlays {
		o.OnDeliver("test.probe", func(info RouteInfo, _ wire.Message) { got = &info })
		o.SetForwardHook(func(RouteInfo, wire.Message) bool {
			hooked[o.ID()]++
			return false
		})
	}
	remote, self, multi := 0, 0, 0
	for i := 0; i < 80; i++ {
		src := r.overlays[rng.Intn(n)]
		key := ids.Random(rng)
		if i%8 == 0 {
			key = src.ID() // origin is its own root
		}
		before := r.payloadDecodes()
		clear(hooked)
		got = nil
		if err := src.RouteTraced(key, &probeMsg{Tag: "p"}); err != nil {
			t.Fatal(err)
		}
		r.world.RunFor(10 * time.Second)
		if got == nil {
			t.Fatalf("route %d not delivered", i)
		}
		if len(got.Path) != got.Hops {
			t.Fatalf("route %d: path %d nodes for %d hops", i, len(got.Path), got.Hops)
		}
		// Every node past the origin decodes once; the origin decodes only
		// when it is the root, for its own delivery copy.
		want := map[ids.ID]uint64{}
		for _, id := range got.Path {
			want[id]++
		}
		if got.Hops == 0 {
			want[src.ID()] = 1
			self++
		} else {
			remote++
		}
		if got.Hops > 1 {
			multi++
		}
		after := r.payloadDecodes()
		for _, o := range r.overlays {
			id := o.ID()
			if d := after[id] - before[id]; d != want[id] {
				t.Errorf("route %d (hops %d): node %s decoded %d times, want %d (origin=%v)",
					i, got.Hops, id.Short(), d, want[id], id == src.ID())
			}
		}
		if hooked[src.ID()] != 1 {
			t.Errorf("route %d: hook ran %d times at the origin, want 1", i, hooked[src.ID()])
		}
		for _, id := range got.Path {
			if hooked[id] != 1 {
				t.Errorf("route %d: hook ran %d times at hop %s, want 1", i, hooked[id], id.Short())
			}
		}
	}
	if remote == 0 || self == 0 || multi == 0 {
		t.Fatalf("routes: %d remote-root (%d multi-hop), %d self-root; want all kinds", remote, multi, self)
	}
}

func TestRootHookAndHandlerShareDecode(t *testing.T) {
	r := buildRing(t, 13, 16, Options{HeartbeatInterval: -1})
	rng := rand.New(rand.NewSource(14))
	hookSaw := make(map[ids.ID]wire.Message)
	var handlerGot wire.Message
	var root ids.ID
	for _, o := range r.overlays {
		o.SetForwardHook(func(_ RouteInfo, msg wire.Message) bool {
			hookSaw[o.ID()] = msg
			return false
		})
		o.OnDeliver("test.probe", func(_ RouteInfo, msg wire.Message) {
			handlerGot, root = msg, o.ID()
		})
	}
	src := r.overlays[2]
	msg := &probeMsg{Tag: "shared"}
	if err := src.Route(r.remoteKey(rng, src), msg); err != nil {
		t.Fatal(err)
	}
	r.world.RunFor(10 * time.Second)
	if handlerGot == nil {
		t.Fatal("not delivered")
	}
	if hookSaw[src.ID()] != msg {
		t.Errorf("hook at hop 0 saw %p, want the caller's value %p", hookSaw[src.ID()], msg)
	}
	if handlerGot != hookSaw[root] {
		t.Errorf("root handler got %p but the root's hook saw %p: payload decoded twice", handlerGot, hookSaw[root])
	}
	if handlerGot == wire.Message(msg) {
		t.Error("remote root's handler aliases the origin's value")
	}
	if tag := handlerGot.(*probeMsg).Tag; tag != "shared" {
		t.Errorf("payload = %q", tag)
	}
}

func TestSelfRootHandlerGetsCopy(t *testing.T) {
	r := buildRing(t, 1, 1, Options{HeartbeatInterval: -1})
	o := r.overlays[0]
	var hookSaw wire.Message
	var got *probeMsg
	o.SetForwardHook(func(_ RouteInfo, msg wire.Message) bool {
		hookSaw = msg
		return false
	})
	o.OnDeliver("test.probe", func(_ RouteInfo, msg wire.Message) { got = msg.(*probeMsg) })
	msg := &probeMsg{Tag: "before"}
	before := o.Stats().PayloadDecodes
	if err := o.Route(ids.FromString("anything"), msg); err != nil {
		t.Fatal(err)
	}
	msg.Tag = "after" // the caller reuses its message once Route returns
	r.world.RunFor(time.Second)
	if got == nil {
		t.Fatal("not delivered")
	}
	if hookSaw != wire.Message(msg) {
		t.Errorf("hook at hop 0 saw %p, want the caller's value %p", hookSaw, msg)
	}
	if got == msg || got.Tag != "before" {
		t.Errorf("handler got %q (aliased=%v), want an unaliased copy of %q", got.Tag, got == msg, "before")
	}
	if d := o.Stats().PayloadDecodes - before; d != 1 {
		t.Errorf("self-rooted route decoded %d times, want 1 (the delivery copy)", d)
	}
}

func TestUndecodablePayloadDropped(t *testing.T) {
	var logs bytes.Buffer
	opts := Options{HeartbeatInterval: -1, Logger: slog.New(slog.NewTextHandler(&logs, nil))}
	r := buildRing(t, 15, 16, opts)
	rng := rand.New(rand.NewSource(16))
	hooked, handled := 0, 0
	for _, o := range r.overlays {
		o.SetForwardHook(func(RouteInfo, wire.Message) bool { hooked++; return true })
		o.OnDeliver("test.probe", func(RouteInfo, wire.Message) { handled++ })
	}
	stats := func() (delivered, decodes uint64) {
		for _, o := range r.overlays {
			st := o.Stats()
			delivered += st.Delivered
			decodes += st.PayloadDecodes
		}
		return delivered, decodes
	}
	src := r.overlays[0]
	for _, inner := range []string{"<not a wire envelope", "", "\x00\x01garbage"} {
		logs.Reset()
		key := r.remoteKey(rng, src)
		delivered0, decodes0 := stats()
		rm := &RouteMsg{
			Key:       key.String(),
			Origin:    src.ID().String(),
			Trace:     true,
			InnerKind: "test.probe",
			Inner:     wire.Bytes(inner),
		}
		src.ep.Send(src.nextHop(key), rm)
		r.world.RunFor(10 * time.Second)
		delivered, decodes := stats()
		if hooked != 0 || handled != 0 {
			t.Fatalf("inner %q: hook ran %d times, handler %d; want neither", inner, hooked, handled)
		}
		if delivered != delivered0 {
			t.Errorf("inner %q: counted %d deliveries, want 0", inner, delivered-delivered0)
		}
		if d := decodes - decodes0; d == 0 || d > uint64(len(r.overlays)) {
			t.Errorf("inner %q: %d decode attempts, want one per hop", inner, d)
		}
		if !strings.Contains(logs.String(), "undecodable routed payload") {
			t.Errorf("inner %q: drop not logged; log:\n%s", inner, logs.String())
		}
	}
}

// benchPayload is a store-sized routed body.
type benchPayload struct {
	Body wire.Bytes `xml:"body"`
}

func (benchPayload) Kind() string { return "test.bench" }

// BenchmarkOverlayRoute routes ~2 KiB payloads (the size of a small store
// put) between random nodes of a 16-node simnet ring with a pass-through
// forward hook on every node, as the storage layer installs, and reports
// network hops and payload decodes per route. Leaf sets of 2+2 leave
// some routes more than one hop long.
func BenchmarkOverlayRoute(b *testing.B) {
	r := buildRing(b, 21, 16, Options{HeartbeatInterval: -1, LeafHalf: 2})
	r.reg.Register(&benchPayload{})
	rng := rand.New(rand.NewSource(22))
	body := make([]byte, 2<<10)
	rng.Read(body)
	delivered := 0
	for _, o := range r.overlays {
		o.OnDeliver("test.bench", func(RouteInfo, wire.Message) { delivered++ })
		o.SetForwardHook(func(RouteInfo, wire.Message) bool { return false })
	}
	const nroutes = 256
	srcs := make([]*Overlay, nroutes)
	keys := make([]ids.ID, nroutes)
	for i := range keys {
		srcs[i] = r.overlays[rng.Intn(len(r.overlays))]
		keys[i] = ids.Random(rng)
	}
	sum := func() (decodes, hops uint64) {
		for _, o := range r.overlays {
			st := o.Stats()
			decodes += st.PayloadDecodes
			hops += st.Forwarded
		}
		return decodes, hops
	}
	decodes0, hops0 := sum()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := srcs[i%nroutes].Route(keys[i%nroutes], &benchPayload{Body: body}); err != nil {
			b.Fatal(err)
		}
		r.world.RunFor(10 * time.Second)
	}
	b.StopTimer()
	if delivered != b.N {
		b.Fatalf("delivered %d of %d routes", delivered, b.N)
	}
	decodes, hops := sum()
	b.ReportMetric(float64(decodes-decodes0)/float64(b.N), "decodes/route")
	b.ReportMetric(float64(hops-hops0)/float64(b.N), "hops/route")
}
