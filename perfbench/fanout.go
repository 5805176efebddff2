package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync/atomic"
	"time"

	"github.com/gloss/active/internal/event"
	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/pubsub"
	"github.com/gloss/active/internal/wire"
)

// fanout: 3 brokers (a root and two leaves), 4 subscriber endpoints with
// 2,500 single-attribute equality filters each, and one publisher
// endpoint attached to the root. Events carry 16 attributes with
// Zipf-skewed values, so fan-out varies per publish.
const (
	fanAttrs     = 16
	fanValues    = 100 // Zipf support per attribute
	fanZipfS     = 1.1
	fanZipfV     = 4
	fanSubs      = 4
	fanFilters   = 10000
	fanTemplates = 2048
	fanWindow    = 16 // closed-loop outstanding publishes
	// fanRate is the fixed open-loop rate, about a quarter of the
	// closed-loop capacity (~2,300 publishes/s) measured on a 2-core host
	// at the commit that introduced this benchmark; at half capacity the
	// latency spread between runs was too wide to bound. It is never
	// re-derived per run.
	fanRate   = 600
	ringSize  = 1 << 16
	drainWait = 3 * time.Second
)

var fanAttrNames = func() []string {
	out := make([]string, fanAttrs)
	for i := range out {
		out[i] = fmt.Sprintf("a%02d", i)
	}
	return out
}()

// bitset is a fixed-size set of filter indexes, safe for concurrent
// test-and-set.
type bitset []atomic.Uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) has(i int) bool { return b[i/64].Load()&(1<<(i%64)) != 0 }

// set marks i and reports whether it was already marked.
func (b bitset) set(i int) bool {
	for {
		w := b[i/64].Load()
		if w&(1<<(i%64)) != 0 {
			return true
		}
		if b[i/64].CompareAndSwap(w, w|1<<(i%64)) {
			return false
		}
	}
}

// pubState tracks one publish until every expected notification arrived.
type pubState struct {
	seq      uint64
	tmpl     int
	due      int64 // ns since the workload epoch
	expected int32
	got      atomic.Int32
	seen     bitset
	lat      *hist
}

type fanout struct {
	st        *stack
	epoch     time.Time
	rng       *rand.Rand
	root, pub *node
	leaves    []*node
	subs      []*node
	filters   []pubsub.Filter
	owner     []int
	tmpls     [][fanAttrs]int64
	expect    []bitset // per template: the filters that match it
	expN      []int32
	ring      [ringSize]atomic.Pointer[pubState]
	doneCh    chan *pubState
	bad       atomic.Int64 // deliveries of a wrong, duplicate or unknown publish
	seq       uint64
	captured  []*event.Event
}

func (f *fanout) params() string {
	var sum float64
	for _, n := range f.expN {
		sum += float64(n)
	}
	return fmt.Sprintf("brokers=3 (root+2 leaves) subscriber_endpoints=%d filters=%d single-attribute-eq attrs=%d zipf(s=%.1f,v=%d,n=%d) templates=%d (mean %.1f notifications each) closed_window=%d open_rate=%d/s codec=binary",
		fanSubs, fanFilters, fanAttrs, fanZipfS, fanZipfV, fanValues, fanTemplates, sum/float64(len(f.expN)), fanWindow, fanRate)
}

func (f *fanout) stack() *stack { return f.st }

func (f *fanout) now() int64 { return int64(time.Since(f.epoch)) }

func (f *fanout) setup(seed int64) error {
	f.epoch = time.Now()
	f.rng = rand.New(rand.NewSource(seed))
	f.doneCh = make(chan *pubState, ringSize)
	names := []string{"fan-root", "fan-leaf-0", "fan-leaf-1", "fan-sub-0", "fan-sub-1", "fan-sub-2", "fan-sub-3", "fan-pub"}
	st, err := bootStack(names, []string{"eu"}, seed)
	if err != nil {
		return err
	}
	f.st = st
	f.root, f.leaves, f.subs, f.pub = st.nodes[0], st.nodes[1:3], st.nodes[3:7], st.nodes[7]
	for _, l := range f.leaves {
		connectBrokers(f.root, l)
	}
	for i, s := range f.subs {
		if err := attach(s, f.leaves[i/2]); err != nil {
			return err
		}
	}
	if err := attach(f.pub, f.root); err != nil {
		return err
	}

	// The table is the same multiset for every seed: each attribute gets
	// fanFilters/fanAttrs filters whose values are evenly spaced quantiles
	// of the Zipf distribution events draw from. The seed deals them to
	// endpoints, and draws the events.
	cdf := make([]float64, fanValues)
	var total float64
	for k := range cdf {
		total += math.Pow(float64(k+fanZipfV), -fanZipfS)
		cdf[k] = total
	}
	perAttr := fanFilters / fanAttrs
	type bucket struct {
		attr int
		val  int64
	}
	byValue := map[bucket][]int{}
	distinct := map[string]bool{}
	perSub := make([][]int, fanSubs)
	deal := f.rng.Perm(fanFilters)
	for i := 0; i < fanFilters; i++ {
		a, k := i/perAttr, i%perAttr
		u := (float64(k) + 0.5) / float64(perAttr) * total
		v := int64(sort.SearchFloat64s(cdf, u))
		flt := pubsub.NewFilter(pubsub.Eq(fanAttrNames[a], event.I(v)))
		owner := deal[i] % fanSubs
		f.filters = append(f.filters, flt)
		f.owner = append(f.owner, owner)
		perSub[owner] = append(perSub[owner], i)
		distinct[flt.Key()] = true
		byValue[bucket{a, v}] = append(byValue[bucket{a, v}], i)
	}
	for si, s := range f.subs {
		s.do(func() {
			for _, i := range perSub[si] {
				s.an.Client.Subscribe(f.filters[i], f.handler(i))
			}
		})
	}
	want := len(distinct)
	brokers := append([]*node{f.root}, f.leaves...)
	if err := waitFor("subscription tables", 30*time.Second, func() bool {
		for _, b := range brokers {
			var n int
			b.do(func() { n = b.an.Broker.Stats().TableEntries })
			if n != want {
				return false
			}
		}
		return true
	}); err != nil {
		return err
	}

	// Templates and their reference delivery sets: Filter.Matches over
	// the filters on each of the template's (attribute, value) pairs —
	// every other filter constrains the same attribute to another value.
	zipf := rand.NewZipf(f.rng, fanZipfS, fanZipfV, fanValues-1)
	for len(f.tmpls) < fanTemplates {
		var t [fanAttrs]int64
		ev := event.New("bench.tick", "perfbench", 0)
		for a := range t {
			t[a] = int64(zipf.Uint64())
			ev.Set(fanAttrNames[a], event.I(t[a]))
		}
		set := newBitset(fanFilters)
		var n int32
		for a, v := range t {
			for _, i := range byValue[bucket{a, v}] {
				if f.filters[i].Matches(ev) {
					set.set(i)
					n++
				}
			}
		}
		if n == 0 {
			continue
		}
		f.tmpls = append(f.tmpls, t)
		f.expect = append(f.expect, set)
		f.expN = append(f.expN, n)
	}

	// Warm-up: dial every link, negotiate codecs and fill pools.
	w := newPhase("warmup")
	bad0 := f.bad.Load()
	f.closedWindow(500*time.Millisecond, nil, w)
	if n := f.bad.Load() - bad0; n > 0 {
		w.fail("wrong, duplicate or unknown delivery", n)
	}
	if w.failed != 0 {
		return fmt.Errorf("warm-up: %d of %d publishes failed %v", w.failed, w.attempted, w.fails)
	}
	return nil
}

// handler is the notification handler of filter i.
func (f *fanout) handler(i int) func(*event.Event) {
	return func(ev *event.Event) {
		now := f.now()
		v, ok := ev.Attrs["seq"]
		if !ok {
			f.bad.Add(1)
			return
		}
		ps := f.ring[uint64(v.I)%ringSize].Load()
		if ps == nil || ps.seq != uint64(v.I) || !f.expect[ps.tmpl].has(i) || ps.seen.set(i) {
			f.bad.Add(1)
			return
		}
		if ps.lat != nil {
			ps.lat.add(time.Duration(now - ps.due))
		}
		if ps.got.Add(1) == ps.expected {
			f.doneCh <- ps
		}
	}
}

// publish issues one publish due at due on the publisher's actor.
func (f *fanout) publish(due int64, lat *hist, tr *tracer) *pubState {
	f.seq++
	seq := f.seq
	ti := f.rng.Intn(len(f.tmpls))
	ev := event.New("bench.tick", "perfbench", time.Duration(due))
	for a, v := range f.tmpls[ti] {
		ev.Set(fanAttrNames[a], event.I(v))
	}
	ev.Set("seq", event.I(int64(seq)))
	ev.Stamp(seq)
	ps := &pubState{seq: seq, tmpl: ti, due: due, expected: f.expN[ti], seen: newBitset(fanFilters), lat: lat}
	f.ring[seq%ringSize].Store(ps)
	if len(f.captured) < 256 {
		f.captured = append(f.captured, ev)
	}
	h := tr.begin("publish", 0, seq)
	f.pub.ep.Do(func() {
		c := tr.begin("client.publish", h, seq)
		f.pub.an.Client.Publish(ev)
		tr.end(c)
		tr.end(h)
	})
	return ps
}

func (f *fanout) run(d time.Duration, tr *tracer) []*phase {
	c, o := newPhase("closed"), newPhase("open")
	bad0 := f.bad.Load()
	for w := 0; w < windows; w++ {
		f.closedWindow(d/3/windows, tr, c)
		f.openWindow((d-d/3)/windows, tr, o)
	}
	c.finish()
	o.finish()
	if n := f.bad.Load() - bad0; n > 0 {
		c.fail("wrong, duplicate or unknown delivery", n)
	}
	return []*phase{c, o}
}

// closedWindow keeps fanWindow publishes outstanding for one window of
// p, then drains.
func (f *fanout) closedWindow(length time.Duration, tr *tracer, p *phase) {
	p.beginWindow(length)
	out := map[uint64]*pubState{}
	stall := time.NewTimer(drainWait)
	defer stall.Stop()
fill:
	for p.windowOpen() {
		for len(out) < fanWindow {
			ps := f.publish(f.now(), nil, tr)
			out[ps.seq] = ps
			p.attempted++
			p.pubs++
		}
		stall.Reset(drainWait)
		select {
		case ps := <-f.doneCh:
			delete(out, ps.seq)
			p.units += float64(ps.expected)
		case <-stall.C:
			break fill
		}
	}
	f.drain(out, p)
	p.endWindow()
}

// openWindow publishes at fanRate for one window of p, timing each
// notification from when its publish was due.
func (f *fanout) openWindow(length time.Duration, tr *tracer, p *phase) {
	p.beginWindow(length)
	out := map[uint64]*pubState{}
	start := f.now()
	interval := int64(time.Second) / fanRate
	for off := int64(0); off < int64(length-p.gap()); off += interval {
		due := start + off
		if wait := due - f.now(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		p.late.add(time.Duration(f.now() - due))
		ps := f.publish(due, p.winLat(), tr)
		out[ps.seq] = ps
		p.attempted++
		p.pubs++
		for drained := false; !drained; {
			select {
			case ps := <-f.doneCh:
				delete(out, ps.seq)
				p.units += float64(ps.expected)
			default:
				drained = true
			}
		}
	}
	f.drain(out, p)
	p.endWindow()
}

// drain waits for outstanding publishes; any still incomplete after the
// grace period failed, and each missing notification is an infinite
// latency sample.
func (f *fanout) drain(out map[uint64]*pubState, p *phase) {
	grace := time.NewTimer(drainWait)
	defer grace.Stop()
	for len(out) > 0 {
		select {
		case ps := <-f.doneCh:
			delete(out, ps.seq)
			p.units += float64(ps.expected)
		case <-grace.C:
			for _, ps := range out {
				missing := ps.expected - ps.got.Load()
				p.fail("missing notification after drain grace", 1)
				if ps.lat != nil {
					ps.lat.addInf(int(missing))
				}
			}
			return
		}
	}
}

func (f *fanout) layer(a, b *snap, ph []*phase, tr *tracer, r *report) {
	replayWire(f.st.reg, fanEnvelopes(f), r)
	// Offline broker holding the root's table: filters arrive from the
	// leaf directions, events from the publisher.
	ob := pubsub.NewBroker(&nopEndpoint{id: ids.FromString("offline-root"), rng: rand.New(rand.NewSource(1))}, pubsub.Options{})
	for i, flt := range f.filters {
		ob.Subscribe(f.leaves[f.owner[i]/2].id(), flt)
	}
	r.infof("pubsub.match_us_per_pub = %.3f us (offline Broker.Publish, %d-filter table, %d captured events)",
		timePerOp(f.captured, func(ev *event.Event) { ob.Publish(f.pub.id(), &pubsub.PubMsg{Event: ev}) }), len(f.filters), len(f.captured))
	ob.Close()
	spanStat(tr, "client.publish", "pubsub.publish_call_us", r)
}

// fanEnvelopes builds the workload's dominant message kinds from the
// events it published: the publish into the root and the deliveries.
func fanEnvelopes(f *fanout) []*wire.Envelope {
	var out []*wire.Envelope
	for _, ev := range f.captured {
		out = append(out,
			&wire.Envelope{From: f.pub.id(), To: f.root.id(), Msg: &pubsub.PubMsg{Event: ev}},
			&wire.Envelope{From: f.leaves[0].id(), To: f.subs[0].id(), Msg: &pubsub.DeliverMsg{Event: ev}})
	}
	return out
}

func (f *fanout) close() {
	if f.st != nil {
		f.st.close()
	}
}
