package main

import (
	"fmt"
	"log/slog"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gloss/active/internal/core"
	"github.com/gloss/active/internal/gateway"
	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/knowledge"
	"github.com/gloss/active/internal/match"
	"github.com/gloss/active/internal/netapi"
	"github.com/gloss/active/internal/nodecfg"
	"github.com/gloss/active/internal/plaxton"
	"github.com/gloss/active/internal/pubsub"
	"github.com/gloss/active/internal/store"
	"github.com/gloss/active/internal/transport"
	"github.com/gloss/active/internal/vclock"
	"github.com/gloss/active/internal/wire"
)

// node is one endpoint of the system under test: a transport.Listen TCP
// node on 127.0.0.1 running the full core.ActiveNode stack.
type node struct {
	name string
	ep   *transport.Node
	an   *core.ActiveNode
}

func (n *node) id() ids.ID { return n.ep.ID() }

// do runs fn on the node's actor loop and waits for it, which is how the
// harness reads and drives actor-owned state.
func (n *node) do(fn func()) {
	done := make(chan struct{})
	n.ep.Do(func() {
		fn()
		close(done)
	})
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		fatalf("actor of %s did not run a call within 30s", n.name)
	}
}

// stack is the set of nodes one workload runs against.
type stack struct {
	reg   *wire.Registry
	nodes []*node
}

// bootStack starts one node per name, every knob at its cmd/activenode
// default except the codec, which is binary on every endpoint as on a
// deployment's interior links. Every node learns every other's address.
func bootStack(names, regions []string, seed int64) (*stack, error) {
	reg := wire.NewRegistry()
	core.RegisterMessages(reg)
	transport.RegisterMessages(reg)
	gateway.RegisterMessages(reg)
	common := nodecfg.Common{Codec: wire.CodecBinary}
	s := &stack{reg: reg}
	for i, name := range names {
		ep, err := transport.Listen(ids.FromString(name), reg, transport.Options{
			Common: common,
			Listen: "127.0.0.1:0",
			Region: regions[i%len(regions)],
			Seed:   seed*1000 + int64(i),
			Logger: slog.New(slog.DiscardHandler),
		})
		if err != nil {
			s.close()
			return nil, fmt.Errorf("listen %s: %w", name, err)
		}
		an := core.NewActiveNode(ep, reg, core.NodeConfig{
			Common:         common,
			Secret:         []byte("gloss-active-secret"),
			AdvertInterval: -1,
		})
		gateway.Serve(an)
		s.nodes = append(s.nodes, &node{name: name, ep: ep, an: an})
	}
	for _, a := range s.nodes {
		for _, b := range s.nodes {
			if a != b {
				a.ep.AddPeer(b.id(), b.ep.Addr())
			}
		}
	}
	return s, nil
}

func (s *stack) close() {
	for _, n := range s.nodes {
		_ = n.ep.Close()
		n.an.Broker.Close()
		n.an.Sync.Stop()
	}
}

// connectBrokers makes a and b broker neighbours, each side on its own
// actor loop.
func connectBrokers(a, b *node) {
	a.do(func() { a.an.Broker.AddNeighbor(b.id()) })
	b.do(func() { b.an.Broker.AddNeighbor(a.id()) })
}

// attach moves n's pub/sub client to broker b and waits for the handoff.
func attach(n, b *node) error {
	errc := make(chan error, 1)
	n.do(func() {
		n.an.Client.AttachTo(b.id(), 5*time.Second, func(_ int, err error) { errc <- err })
	})
	select {
	case err := <-errc:
		return err
	case <-time.After(10 * time.Second):
		return fmt.Errorf("attach %s to %s: no reply", n.name, b.name)
	}
}

// waitFor polls cond until it holds or the timeout passes.
func waitFor(what string, timeout time.Duration, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
	return nil
}

// waitStable polls state until it reads the same for 200ms.
func waitStable(what string, state func() string) error {
	deadline := time.Now().Add(10 * time.Second)
	last, since := state(), time.Now()
	for time.Since(since) < 200*time.Millisecond {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for %s to settle", what)
		}
		time.Sleep(20 * time.Millisecond)
		if cur := state(); cur != last {
			last, since = cur, time.Now()
		}
	}
	return nil
}

// snap is every layer's counters summed over the stack at one instant.
type snap struct {
	rt     rtSample
	tr     transport.Stats
	br     pubsub.Stats
	cliDlv uint64
	cliDup uint64
	eng    match.Stats
	sync   knowledge.SyncStats
	st     store.Stats
	ov     plaxton.Stats
}

// snapshot reads every counter; actor-owned ones through do.
func (s *stack) snapshot() *snap {
	out := &snap{}
	for _, n := range s.nodes {
		t := n.ep.Stats()
		out.tr.Sent += t.Sent
		out.tr.SentBinary += t.SentBinary
		out.tr.Dropped += t.Dropped
		out.tr.DroppedOverflow += t.DroppedOverflow
		out.tr.DroppedNoAddr += t.DroppedNoAddr
		out.tr.DroppedEncode += t.DroppedEncode
		out.tr.DroppedDialFail += t.DroppedDialFail
		out.tr.FlushWrites += t.FlushWrites
		y := n.an.Sync.Stats()
		out.sync.Fetches += y.Fetches
		out.sync.Absorbed += y.Absorbed
		out.sync.SiblingMerges += y.SiblingMerges
		out.sync.ReadRepairs += y.ReadRepairs
		n.do(func() {
			b := n.an.Broker.Stats()
			out.br.ClientDelivers += b.ClientDelivers
			out.br.ShedDeliveries += b.ShedDeliveries
			out.cliDlv += n.an.Client.Delivered
			out.cliDup += n.an.Client.Duplicates
			e := n.an.Engine.Stats()
			out.eng.EventsIn += e.EventsIn
			out.eng.Joins += e.Joins
			out.eng.CondFails += e.CondFails
			out.eng.Emitted += e.Emitted
			out.eng.Suppressed += e.Suppressed
			out.eng.Errors += e.Errors
			st := n.an.Store.Stats()
			out.st.Puts += st.Puts
			out.st.Gets += st.Gets
			out.st.LocalHits += st.LocalHits
			out.st.CacheHits += st.CacheHits
			out.st.ReplicaHits += st.ReplicaHits
			out.st.RootAnswers += st.RootAnswers
			out.st.Timeouts += st.Timeouts
			out.st.Retries += st.Retries
			out.st.RepairBytes += st.RepairBytes
			out.st.ChunkFramesSent += st.ChunkFramesSent
			ov := n.an.Overlay.Stats()
			out.ov.Forwarded += ov.Forwarded
			out.ov.Delivered += ov.Delivered
		})
	}
	out.rt = readRuntime()
	return out
}

// outboxSampler polls every node's per-peer queued bytes and keeps the
// maximum seen.
type outboxSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	max  atomic.Int64
}

func (s *stack) startOutboxSampler() *outboxSampler {
	o := &outboxSampler{stop: make(chan struct{})}
	o.wg.Add(1)
	go func() {
		defer o.wg.Done()
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			for _, a := range s.nodes {
				for _, b := range s.nodes {
					if a == b {
						continue
					}
					if q := int64(a.ep.QueuedBytes(b.id())); q > o.max.Load() {
						o.max.Store(q)
					}
				}
			}
			select {
			case <-o.stop:
				return
			case <-t.C:
			}
		}
	}()
	return o
}

// done stops sampling and returns the peak in KiB.
func (o *outboxSampler) done() float64 {
	close(o.stop)
	o.wg.Wait()
	return float64(o.max.Load()) / 1024
}

// nopEndpoint is an offline endpoint that drops every send; replay probes
// drive a layer on it to time the layer alone.
type nopEndpoint struct {
	id  ids.ID
	rng *rand.Rand
}

var _ netapi.Endpoint = (*nopEndpoint)(nil)

func (e *nopEndpoint) ID() ids.ID                                                    { return e.id }
func (e *nopEndpoint) Info() netapi.NodeInfo                                         { return netapi.NodeInfo{ID: e.id} }
func (e *nopEndpoint) Clock() vclock.Clock                                           { return nopClock{} }
func (e *nopEndpoint) Rand() *rand.Rand                                              { return e.rng }
func (e *nopEndpoint) Send(ids.ID, wire.Message)                                     {}
func (e *nopEndpoint) Request(ids.ID, wire.Message, time.Duration, netapi.ReplyFunc) {}
func (e *nopEndpoint) Handle(string, netapi.Handler)                                 {}

type nopClock struct{}

func (nopClock) Now() time.Duration                       { return 0 }
func (nopClock) After(time.Duration, func()) vclock.Timer { return nopTimer{} }

type nopTimer struct{}

func (nopTimer) Stop() bool { return true }
