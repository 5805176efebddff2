package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gloss/active/internal/event"
	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/knowledge"
	"github.com/gloss/active/internal/match"
	"github.com/gloss/active/internal/netapi"
	"github.com/gloss/active/internal/pubsub"
	"github.com/gloss/active/internal/wire"
)

// context: the paper's §1.1 scenario scaled up. Users publish
// gps.location, cell sensors publish weather.report, and two matchlet
// engine hosts (one per region) correlate them with KB facts and GIS
// places under an ice-cream-shaped rule; suggestion.meet alerts go to
// the addressed user's device endpoint. Devices churn zone filters.
const (
	ctxRegions    = 2
	ctxUsers      = 100 // over both regions
	ctxSpots      = 4   // positions each user reports from
	ctxRegionKm   = 20.0
	ctxCellKm     = 5.0
	ctxPlaces     = 120 // per region
	ctxWeatherPct = 30  // of sensor events
	ctxChurnEvery = 20  // every 20th operation is churn (5%)
	ctxWindow     = 16  // closed-loop outstanding events
	ctxBuffer     = 64  // match.Options.MaxBuffer default, mirrored by the reference model
	// ctxRate is the fixed open-loop operation rate, about an eighth of
	// the closed-loop capacity (~4,000 events/s) measured on a 2-core host
	// at the commit that introduced this benchmark; at half or a quarter
	// of capacity the latency spread between runs was too wide to bound.
	// It is never re-derived per run.
	ctxRate = 500
)

var ctxRegionNames = []string{"north", "south"}

type ctxUser struct {
	name   string
	region int
	likes  bool
	spare  bool
	thr    float64
	device int
	spots  [ctxSpots]ctxSpot
	zone   int64
	facts  []knowledge.Fact
}

type ctxSpot struct {
	x, y  float64
	cell  int64
	place string // nearest ice-cream seller within 1.5 km; "" if none
	ok    bool   // a seller exists and is open long enough to walk to
}

// ctxEv is the reference model's view of one sensor event.
type ctxEv struct {
	seq     uint64
	weather bool
	user    int
	spot    int
	cell    int64
	temp    float64
}

type ctxAlert struct {
	gseq, wseq uint64
	user       string
	place      string
}

// ctxOp tracks one sensor event until the engine host processed it and
// every alert it must trigger reached the user's device.
type ctxOp struct {
	seq    uint64
	due    int64
	need   int32
	got    atomic.Int32
	alerts []ctxAlert
	seen   []atomic.Bool
	lat    *hist
}

type contextW struct {
	st      *stack
	epoch   time.Time
	rng     *rand.Rand
	core    *node
	engines []*node
	devices []*node
	gen     *node
	users   []*ctxUser
	places  [ctxRegions][]knowledge.Place
	model   [ctxRegions]struct{ loc, w []ctxEv }
	ring    [ringSize]atomic.Pointer[ctxOp]
	doneCh  chan *ctxOp
	bad     atomic.Int64
	seq     uint64
	ops     uint64 // operations generated, churn included
	tr      atomic.Pointer[tracer]

	mu          sync.Mutex
	capturedEv  []*event.Event
	capturedAlr []*event.Event
	filters     []pubsub.Filter // the tree brokers' table, for the offline replay
	filterDir   []ids.ID
}

func (c *contextW) params() string {
	return fmt.Sprintf("brokers=core+2 engine hosts devices=4 users=%d regions=%d cells/region=%d places/region=%d weather=%d%% churn=1/%d ops rule=loc⋈weather on cell +3 kb +GIS (MaxBuffer %d, suppression off) closed_window=%d open_rate=%d/s codec=binary",
		ctxUsers, ctxRegions, int(ctxRegionKm/ctxCellKm)*int(ctxRegionKm/ctxCellKm), ctxPlaces, ctxWeatherPct, ctxChurnEvery, ctxBuffer, ctxWindow, ctxRate)
}

func (c *contextW) stack() *stack { return c.st }

func (c *contextW) now() int64 { return int64(time.Since(c.epoch)) }

func cellOf(region int, x, y float64) int64 {
	n := int64(ctxRegionKm / ctxCellKm)
	return int64(region)*1000 + int64(x/ctxCellKm) + n*int64((y-float64(region)*ctxRegionKm)/ctxCellKm)
}

// rule is the per-region correlation, shaped like core.IceCreamRule:
// a user's location joined with a weather report from the same cell, the
// user's KB facts, and the nearest open shop selling ice cream.
func ctxRule(region string) *match.Rule {
	inRegion := pubsub.Eq("region", event.S(region))
	return &match.Rule{
		Name:       "meetup-" + region,
		WindowMs:   int64(30 * time.Minute / time.Millisecond),
		SuppressMs: -1,
		Patterns: []match.Pattern{
			{Alias: "loc", Filter: pubsub.NewFilter(pubsub.TypeIs("gps.location"), inRegion),
				Bind: []match.Binding{{Attr: "user", Var: "U"}, {Attr: "cell", Var: "C"}}},
			{Alias: "w", Filter: pubsub.NewFilter(pubsub.TypeIs("weather.report"), inRegion),
				Bind: []match.Binding{{Attr: "cell", Var: "C"}}},
		},
		Where: []match.Condition{
			{Type: "kb", S: "$U", P: "likes", O: "ice cream"},
			{Type: "kb", S: "$U", P: "has-spare-time", O: "true"},
			{Type: "cmp", Left: "$w.tempC", Op: "ge", Right: "kb:$U:hot-threshold:25"},
			{Type: "bindNearestSelling", Item: "ice cream", Near: "$loc", Km: 1.5, Var: "P"},
			{Type: "reachable", A: "$loc", Var: "$P", SpeedKmH: 5},
		},
		Emit: match.Emit{
			Type: "suggestion.meet",
			Attrs: []match.EmitAttr{
				{Name: "user", From: "$U"},
				{Name: "place", From: "$P"},
				{Name: "region", From: "$loc.region"},
				{Name: "gseq", From: "$loc.seq"},
				{Name: "wseq", From: "$w.seq"},
				{Name: "srcTime", From: "$loc.time", Volatile: true},
			},
		},
	}
}

func (c *contextW) userFacts(u *ctxUser) []knowledge.Fact {
	likes := "tea"
	if u.likes {
		likes = "ice cream"
	}
	spare := knowledge.Fact{S: u.name, P: "has-spare-time", O: "true", From: 0, To: 48 * time.Hour}
	if !u.spare {
		spare.From, spare.To = 30*time.Hour, 40*time.Hour
	}
	return []knowledge.Fact{
		{S: u.name, P: "likes", O: likes},
		{S: u.name, P: "hot-threshold", O: fmt.Sprint(u.thr)},
		spare,
		{S: u.name, P: "nationality", O: []string{"scottish", "italian", "finnish"}[c.rng.Intn(3)]},
		{S: u.name, P: "knows", O: fmt.Sprintf("user-%d", c.rng.Intn(ctxUsers))},
	}
}

func (c *contextW) generate() {
	for r := 0; r < ctxRegions; r++ {
		for i := 0; i < ctxPlaces; i++ {
			p := knowledge.Place{
				Name:   fmt.Sprintf("shop-%s-%03d", ctxRegionNames[r], i),
				Region: ctxRegionNames[r],
				X:      c.rng.Float64() * ctxRegionKm,
				Y:      float64(r)*ctxRegionKm + c.rng.Float64()*ctxRegionKm,
				Sells:  []string{"coffee"},
			}
			if c.rng.Intn(10) < 7 {
				p.Sells = append(p.Sells, "ice cream")
			}
			if c.rng.Intn(4) == 0 {
				// Closed for the whole run: the engine clock starts at 0.
				p.Hours = knowledge.Span{Open: 12 * time.Hour, Close: 20 * time.Hour}
			}
			c.places[r] = append(c.places[r], p)
		}
	}
	for i := 0; i < ctxUsers; i++ {
		u := &ctxUser{
			name:   fmt.Sprintf("user-%d", i),
			region: i % ctxRegions,
			likes:  c.rng.Intn(10) < 8,
			spare:  c.rng.Intn(10) < 7,
			thr:    float64(15 + c.rng.Intn(16)),
			device: c.rng.Intn(4),
			zone:   c.rng.Int63n(1000),
		}
		hx := 1.5 + c.rng.Float64()*(ctxRegionKm-3)
		hy := float64(u.region)*ctxRegionKm + 1.5 + c.rng.Float64()*(ctxRegionKm-3)
		for s := range u.spots {
			x, y := hx+c.rng.Float64()*3-1.5, hy+c.rng.Float64()*3-1.5
			sp := ctxSpot{x: x, y: y, cell: cellOf(u.region, x, y)}
			// Reference for bindNearestSelling + reachable: the nearest
			// seller within 1.5 km (ties by name), open now for longer
			// than the walk.
			best := math.Inf(1)
			var bp *knowledge.Place
			for pi := range c.places[u.region] {
				p := &c.places[u.region][pi]
				d := netapi.Coord{X: x, Y: y}.DistanceKm(p.At())
				if d <= 1.5 && p.SellsItem("ice cream") && (d < best || d == best && p.Name < bp.Name) {
					best, bp = d, p
				}
			}
			if bp != nil {
				sp.place = bp.Name
				walk := time.Duration(best / 5 * float64(time.Hour))
				sp.ok = bp.OpenAt(time.Minute) && bp.OpenFor(time.Minute) > walk
			}
			u.spots[s] = sp
		}
		u.facts = c.userFacts(u)
		c.users = append(c.users, u)
	}
}

func (c *contextW) setup(seed int64) error {
	c.epoch = time.Now()
	c.rng = rand.New(rand.NewSource(seed))
	c.doneCh = make(chan *ctxOp, ringSize)
	names := []string{"ctx-core", "ctx-engine-north", "ctx-engine-south", "ctx-dev-0", "ctx-dev-1", "ctx-dev-2", "ctx-dev-3", "ctx-gen"}
	st, err := bootStack(names, []string{"eu", "north", "south", "north", "north", "south", "south", "eu"}, seed)
	if err != nil {
		return err
	}
	c.st = st
	c.core, c.engines, c.devices, c.gen = st.nodes[0], st.nodes[1:3], st.nodes[3:7], st.nodes[7]
	for _, e := range c.engines {
		connectBrokers(c.core, e)
	}
	for i, d := range c.devices {
		if err := attach(d, c.engines[i/2]); err != nil {
			return err
		}
	}
	if err := attach(c.gen, c.core); err != nil {
		return err
	}
	c.generate()

	for r, e := range c.engines {
		var err error
		e.do(func() {
			for _, u := range c.users {
				if u.region == r {
					for _, f := range u.facts {
						e.an.KB.Add(f)
					}
				}
			}
			for _, p := range c.places[r] {
				if err = e.an.GIS.AddPlace(p); err != nil {
					return
				}
			}
			rule := ctxRule(ctxRegionNames[r])
			if err = e.an.Engine.AddRule(rule); err != nil {
				return
			}
			for _, p := range rule.Patterns {
				e.an.Client.Subscribe(p.Filter, c.engineHandler(e))
			}
		})
		if err != nil {
			return err
		}
		for _, p := range ctxRule(ctxRegionNames[r]).Patterns {
			c.filters = append(c.filters, p.Filter)
			c.filterDir = append(c.filterDir, e.id())
		}
	}
	for di, d := range c.devices {
		d.do(func() {
			for _, u := range c.users {
				if u.device == di {
					d.an.Client.Subscribe(alertFilter(u), c.onAlert)
					d.an.Client.Subscribe(zoneFilter(u), func(*event.Event) {})
				}
			}
		})
		for _, u := range c.users {
			if u.device == di {
				c.filters = append(c.filters, alertFilter(u), zoneFilter(u))
				c.filterDir = append(c.filterDir, c.engines[di/2].id(), c.engines[di/2].id())
			}
		}
	}
	want := len(c.filters)
	for _, b := range []*node{c.core, c.engines[0], c.engines[1]} {
		if err := waitFor("subscription tables", 30*time.Second, func() bool {
			var n int
			b.do(func() { n = b.an.Broker.Stats().TableEntries })
			return n == want
		}); err != nil {
			return err
		}
	}

	// Warm-up: fill every engine buffer past MaxBuffer so the join
	// reaches its steady state, and dial every link.
	w := newPhase("warmup")
	bad0 := c.bad.Load()
	c.closedWindow(0, 1200, nil, w)
	if n := c.bad.Load() - bad0; n > 0 {
		w.fail("wrong, duplicate or unknown alert", n)
	}
	if w.failed != 0 {
		return fmt.Errorf("warm-up: %d of %d events failed %v", w.failed, w.attempted, w.fails)
	}
	return nil
}

func alertFilter(u *ctxUser) pubsub.Filter {
	return pubsub.NewFilter(pubsub.TypeIs("suggestion.meet"), pubsub.Eq("user", event.S(u.name)))
}

func zoneFilter(u *ctxUser) pubsub.Filter {
	return pubsub.NewFilter(pubsub.TypeIs("zone.notice"), pubsub.Eq("user", event.S(u.name)), pubsub.Eq("zone", event.I(u.zone)))
}

// engineHandler is the engine host's subscription handler: it feeds the
// event to the node's matching engine.
func (c *contextW) engineHandler(e *node) func(*event.Event) {
	return func(ev *event.Event) {
		seq := uint64(ev.Attrs["seq"].I)
		tr := c.tr.Load()
		h := tr.begin("engine.put", 0, seq)
		e.an.Engine.Put(ev)
		tr.end(h)
		c.arrive(seq)
	}
}

// arrive counts one of an op's expected arrivals (its processing, or one
// of its alerts) and completes the op on the last.
func (c *contextW) arrive(seq uint64) {
	op := c.ring[seq%ringSize].Load()
	if op == nil || op.seq != seq {
		c.bad.Add(1)
		return
	}
	if op.got.Add(1) == op.need {
		c.doneCh <- op
	}
}

// onAlert checks one alert at a device against the triggers the
// reference model constructed.
func (c *contextW) onAlert(ev *event.Event) {
	now := c.now()
	g, w := uint64(ev.Attrs["gseq"].I), uint64(ev.Attrs["wseq"].I)
	trig := max(g, w)
	op := c.ring[trig%ringSize].Load()
	if op == nil || op.seq != trig {
		c.bad.Add(1)
		return
	}
	for i, a := range op.alerts {
		if a.gseq == g && a.wseq == w {
			if a.user != ev.GetString("user") || a.place != ev.GetString("place") || op.seen[i].Swap(true) {
				c.bad.Add(1)
				return
			}
			if op.lat != nil {
				op.lat.add(time.Duration(now - op.due))
			}
			c.mu.Lock()
			if len(c.capturedAlr) < 64 {
				c.capturedAlr = append(c.capturedAlr, ev)
			}
			c.mu.Unlock()
			c.arrive(trig)
			return
		}
	}
	c.bad.Add(1)
}

// expect runs the reference model for one event: the engine inserts it
// into its pattern buffer (the last ctxBuffer kept) and joins it with the
// other pattern's buffer on the cell.
func (c *contextW) expect(e ctxEv) []ctxAlert {
	r := c.users[e.user].region
	if e.weather {
		r = int(e.cell / 1000)
	}
	m := &c.model[r]
	var out []ctxAlert
	cond := func(g, w ctxEv) bool {
		u := c.users[g.user]
		return g.cell == w.cell && u.likes && u.spare && w.temp >= u.thr && u.spots[g.spot].ok
	}
	add := func(g, w ctxEv) {
		u := c.users[g.user]
		out = append(out, ctxAlert{gseq: g.seq, wseq: w.seq, user: u.name, place: u.spots[g.spot].place})
	}
	if e.weather {
		m.w = keepLast(append(m.w, e))
		for _, g := range m.loc {
			if cond(g, e) {
				add(g, e)
			}
		}
	} else {
		m.loc = keepLast(append(m.loc, e))
		for _, w := range m.w {
			if cond(e, w) {
				add(e, w)
			}
		}
	}
	return out
}

func keepLast(b []ctxEv) []ctxEv {
	if len(b) > ctxBuffer {
		return append(b[:0:0], b[len(b)-ctxBuffer:]...)
	}
	return b
}

// next generates the next operation: a sensor event, or (every
// ctxChurnEvery-th operation) a device moving one user's zone filter. It
// returns nil for churn.
func (c *contextW) next(due int64, lat *hist, tr *tracer, p *phase) *ctxOp {
	c.ops++
	if c.ops%ctxChurnEvery == 0 {
		u := c.users[c.rng.Intn(len(c.users))]
		old := zoneFilter(u)
		u.zone = c.rng.Int63n(1000)
		nu := zoneFilter(u)
		d := c.devices[u.device]
		d.ep.Do(func() {
			h := tr.begin("churn", 0, 0)
			d.an.Client.Unsubscribe(old)
			d.an.Client.Subscribe(nu, func(*event.Event) {})
			tr.end(h)
		})
		p.attempted++
		return nil
	}
	c.seq++
	seq := c.seq
	var e ctxEv
	var ev *event.Event
	if c.rng.Intn(100) < ctxWeatherPct {
		r := c.rng.Intn(ctxRegions)
		x, y := c.rng.Float64()*ctxRegionKm, float64(r)*ctxRegionKm+c.rng.Float64()*ctxRegionKm
		e = ctxEv{seq: seq, weather: true, cell: cellOf(r, x, y), temp: 10 + c.rng.Float64()*25}
		ev = event.New("weather.report", "sensor/"+fmt.Sprint(e.cell), time.Duration(due)).
			Set("region", event.S(ctxRegionNames[r])).Set("cell", event.I(e.cell)).
			Set("tempC", event.F(e.temp))
	} else {
		ui := c.rng.Intn(len(c.users))
		u := c.users[ui]
		si := c.rng.Intn(ctxSpots)
		sp := u.spots[si]
		e = ctxEv{seq: seq, user: ui, spot: si, cell: sp.cell}
		ev = event.New("gps.location", "device/"+u.name, time.Duration(due)).
			Set("user", event.S(u.name)).Set("region", event.S(ctxRegionNames[u.region])).
			Set("cell", event.I(sp.cell)).Set("x", event.F(sp.x)).Set("y", event.F(sp.y))
	}
	ev.Set("seq", event.I(int64(seq))).Stamp(seq)
	alerts := c.expect(e)
	op := &ctxOp{seq: seq, due: due, need: int32(len(alerts) + 1), alerts: alerts, seen: make([]atomic.Bool, len(alerts)), lat: lat}
	c.ring[seq%ringSize].Store(op)
	if len(c.capturedEv) < 256 {
		c.capturedEv = append(c.capturedEv, ev)
	}
	h := tr.begin("publish", 0, seq)
	c.gen.ep.Do(func() {
		cp := tr.begin("client.publish", h, seq)
		c.gen.an.Client.Publish(ev)
		tr.end(cp)
		tr.end(h)
	})
	p.attempted++
	p.pubs++
	return op
}

func (c *contextW) run(d time.Duration, tr *tracer) []*phase {
	c.tr.Store(tr)
	cl, op := newPhase("closed"), newPhase("open")
	bad0 := c.bad.Load()
	for w := 0; w < windows; w++ {
		c.closedWindow(d/3/windows, 0, tr, cl)
		c.openWindow((d-d/3)/windows, tr, op)
	}
	c.tr.Store(nil)
	cl.finish()
	op.finish()
	if n := c.bad.Load() - bad0; n > 0 {
		cl.fail("wrong, duplicate or unknown alert", n)
	}
	return []*phase{cl, op}
}

// closedWindow keeps ctxWindow events outstanding for one window of p
// (or, for an untimed window, until minEvents completed), then drains.
func (c *contextW) closedWindow(length time.Duration, minEvents int, tr *tracer, p *phase) {
	p.beginWindow(length)
	out := map[uint64]*ctxOp{}
	stall := time.NewTimer(drainWait)
	defer stall.Stop()
fill:
	for p.windowOpen() && (minEvents == 0 || p.units < float64(minEvents)) {
		for len(out) < ctxWindow {
			if op := c.next(c.now(), nil, tr, p); op != nil {
				out[op.seq] = op
			}
		}
		stall.Reset(drainWait)
		select {
		case op := <-c.doneCh:
			delete(out, op.seq)
			p.units++
		case <-stall.C:
			break fill
		}
	}
	c.drain(out, p)
	p.endWindow()
}

// openWindow issues operations at ctxRate for one window of p; each
// alert is timed from when its triggering event was due.
func (c *contextW) openWindow(length time.Duration, tr *tracer, p *phase) {
	p.beginWindow(length)
	out := map[uint64]*ctxOp{}
	start := c.now()
	interval := int64(time.Second) / ctxRate
	for off := int64(0); off < int64(length-p.gap()); off += interval {
		due := start + off
		if wait := due - c.now(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		p.late.add(time.Duration(c.now() - due))
		if op := c.next(due, p.winLat(), tr, p); op != nil {
			out[op.seq] = op
		}
		for drained := false; !drained; {
			select {
			case op := <-c.doneCh:
				delete(out, op.seq)
				p.units++
			default:
				drained = true
			}
		}
	}
	c.drain(out, p)
	p.endWindow()
}

func (c *contextW) drain(out map[uint64]*ctxOp, p *phase) {
	grace := time.NewTimer(drainWait)
	defer grace.Stop()
	for len(out) > 0 {
		select {
		case op := <-c.doneCh:
			delete(out, op.seq)
			p.units++
		case <-grace.C:
			for _, op := range out {
				p.fail("event unprocessed or alert missing after drain grace", 1)
				if op.lat != nil {
					op.lat.addInf(int(op.need - op.got.Load()))
				}
			}
			return
		}
	}
}

func (c *contextW) layer(a, b *snap, ph []*phase, tr *tracer, r *report) {
	var envs []*wire.Envelope
	for _, ev := range c.capturedEv {
		envs = append(envs, &wire.Envelope{From: c.gen.id(), To: c.core.id(), Msg: &pubsub.PubMsg{Event: ev}})
	}
	c.mu.Lock()
	for _, ev := range c.capturedAlr {
		envs = append(envs, &wire.Envelope{From: c.engines[0].id(), To: c.devices[0].id(), Msg: &pubsub.DeliverMsg{Event: ev}})
	}
	c.mu.Unlock()
	replayWire(c.st.reg, envs, r)

	ob := pubsub.NewBroker(&nopEndpoint{id: ids.FromString("offline-core"), rng: rand.New(rand.NewSource(1))}, pubsub.Options{})
	for i, f := range c.filters {
		ob.Subscribe(c.filterDir[i], f)
	}
	r.infof("pubsub.match_us_per_pub = %.3f us (offline Broker.Publish, %d-filter core table, %d captured events)",
		timePerOp(c.capturedEv, func(ev *event.Event) { ob.Publish(c.gen.id(), &pubsub.PubMsg{Event: ev}) }), len(c.filters), len(c.capturedEv))
	ob.Close()

	// KB.Query replayed for the rule's kb conditions on a KB holding the
	// same facts as the engine hosts.
	kb := knowledge.NewKB()
	for _, u := range c.users {
		for _, f := range u.facts {
			kb.Add(f)
		}
	}
	conds := []struct{ p, o string }{{"likes", "ice cream"}, {"has-spare-time", "true"}, {"hot-threshold", ""}}
	r.infof("knowledge.query_us = %.3f us (KB.Query per kb condition, %d users x %d conditions)",
		timePerOp(c.users, func(u *ctxUser) {
			for _, q := range conds {
				_ = kb.Query(u.name, q.p, q.o, time.Minute)
			}
		})/float64(len(conds)), len(c.users), len(conds))
	spanStat(tr, "engine.put", "match.put_us", r)
	spanStat(tr, "client.publish", "pubsub.publish_call_us", r)
	spanStat(tr, "churn", "pubsub.churn_us", r)
}

func (c *contextW) close() {
	if c.st != nil {
		c.st.close()
	}
}
