package main

import (
	"crypto/sha256"
	"fmt"
	"maps"
	"math/rand"
	"time"

	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/knowledge"
	"github.com/gloss/active/internal/store"
	"github.com/gloss/active/internal/wire"
)

// store-kb: 8 overlay nodes and two closed-loop callers mixing small and
// chunked store puts, Zipf-skewed gets from nodes other than the writer,
// and knowledge writes from two writers on shared subjects with reads at
// other nodes.
const (
	skNodes      = 8
	skCallers    = 2
	skSmallPool  = 2048 // distinct ~2 KiB objects, all written during set-up
	skBigPool    = 12   // distinct chunked objects, all written during set-up
	skSubjects   = 8
	skSlots      = 4        // facts each writer keeps per subject
	skChunkBytes = 64 << 10 // store.Options.ChunkBytes default
	// Op mix in percent.
	skPctPut   = 30
	skPctBig   = 3
	skPctGet   = 40
	skPctWrite = 12 // the rest are knowledge reads
)

type skKind int

const (
	skPut skKind = iota
	skBig
	skGet
	skKBWrite
	skKBRead
)

var skKindNames = []string{"put", "put", "get", "kb_write", "kb_read"}

// skOp is one store or knowledge operation of one caller.
type skOp struct {
	id      uint64
	caller  int
	kind    skKind
	n       *node
	obj     int // pool index (puts, gets)
	subject int
	fact    knowledge.Fact // the fact a knowledge write sets
	start   time.Time
	callT   time.Time // when the timed layer call was made
	err     error
	span    int32
	data    []byte                   // put payload
	guid    ids.ID                   // get target
	got     []byte                   // get result
	want    map[string]time.Duration // per predicate, the newest write completed before a read began
	facts   []knowledge.Fact         // facts a read returned
	callDur time.Duration
	wl      *hist // latency window the op was issued in
	// blind writes publish without fetching first: only the first write
	// of a subject, which has nothing to fetch.
	blind bool
}

type skObj struct {
	data   []byte
	sum    [32]byte
	guid   ids.ID
	writer int // node index of the last completed put
}

type storeKB struct {
	st      *stack
	rng     *rand.Rand
	writers [skCallers]*node
	readers []*node
	small   []skObj
	big     []skObj
	zipf    *rand.Zipf // over pool indexes: small objects, then big ones
	done    chan *skOp
	tr      *tracer
	nextID  uint64
	fact    int

	// Knowledge model. Each writer keeps skSlots interval facts per
	// subject, one per predicate, and each write supersedes one of them
	// with a newer validity start, so a subject's fact set stays bounded
	// and every replica resolves a predicate to its newest write. Kept:
	// per subject and predicate the newest completed write; every fact
	// ever issued; what each reader last returned per subject.
	completed [skSubjects]map[string]time.Duration
	issued    map[knowledge.Fact]bool
	lastRead  map[[2]int]map[string]time.Duration
	captured  [][]byte
}

func (s *storeKB) params() string {
	return fmt.Sprintf("overlay_nodes=%d callers=%d mix: put %d%% (~2KiB, pool %d) chunked-put %d%% (3-4.5 x %d KiB, pool %d) get %d%% (zipf, non-writer node) kb-write %d%% (2 writers, %d shared subjects, fetch+add+PublishSubject) kb-read %d%% (FetchSubject at other nodes) codec=binary",
		skNodes, skCallers, skPctPut, skSmallPool, skPctBig, skChunkBytes>>10, skBigPool, skPctGet, skPctWrite, skSubjects, 100-skPctPut-skPctBig-skPctGet-skPctWrite)
}

func (s *storeKB) stack() *stack { return s.st }

func (s *storeKB) setup(seed int64) error {
	s.rng = rand.New(rand.NewSource(seed))
	s.done = make(chan *skOp, skCallers)
	names := make([]string, skNodes)
	for i := range names {
		names[i] = fmt.Sprintf("kb-node-%d", i)
	}
	st, err := bootStack(names, []string{"eu", "us"}, seed)
	if err != nil {
		return err
	}
	s.st = st
	s.writers = [skCallers]*node{st.nodes[1], st.nodes[2]}
	s.readers = append([]*node{st.nodes[0]}, st.nodes[3:]...)
	st.nodes[0].do(st.nodes[0].an.Overlay.CreateNetwork)
	for _, n := range st.nodes[1:] {
		errc := make(chan error, 1)
		n.do(func() { n.an.Overlay.Join(st.nodes[0].id(), func(err error) { errc <- err }) })
		select {
		case err := <-errc:
			if err != nil {
				return fmt.Errorf("join %s: %w", n.name, err)
			}
		case <-time.After(15 * time.Second):
			return fmt.Errorf("join %s: no response", n.name)
		}
	}
	// Without overlay maintenance (the default) leaf sets grow only from
	// join traffic; let that traffic finish before loading.
	if err := waitStable("overlay leaf sets", func() string {
		var sizes []int
		for _, n := range st.nodes {
			n.do(func() { sizes = append(sizes, len(n.an.Overlay.Leaves())) })
		}
		return fmt.Sprint(sizes)
	}); err != nil {
		return err
	}

	mk := func(size int) skObj {
		b := make([]byte, size)
		s.rng.Read(b)
		return skObj{data: b, sum: sha256.Sum256(b), guid: store.GUIDFor(b), writer: -1}
	}
	for i := 0; i < skSmallPool; i++ {
		s.small = append(s.small, mk(1536+s.rng.Intn(1024)))
	}
	for i := 0; i < skBigPool; i++ {
		s.big = append(s.big, mk(3*skChunkBytes+s.rng.Intn(3*skChunkBytes/2)))
	}
	s.zipf = rand.NewZipf(s.rng, 1.1, 8, skSmallPool+skBigPool-1)
	s.issued = map[knowledge.Fact]bool{}
	s.lastRead = map[[2]int]map[string]time.Duration{}
	for i := range s.completed {
		s.completed[i] = map[string]time.Duration{}
	}

	// Preload: objects to read, a first (blind) write of every subject so
	// every later fetch finds a stored envelope, then one
	// fetch-add-publish write of every subject by each writer.
	var puts, firsts, rmws []*skOp
	for i := 0; i < skSmallPool; i++ {
		puts = append(puts, &skOp{kind: skPut, obj: i})
	}
	for i := 0; i < skBigPool; i++ {
		puts = append(puts, &skOp{kind: skBig, obj: skSmallPool + i})
	}
	for subj := 0; subj < skSubjects; subj++ {
		firsts = append(firsts, &skOp{kind: skKBWrite, subject: subj, blind: true})
		for c := 0; c < skCallers; c++ {
			rmws = append(rmws, &skOp{kind: skKBWrite, subject: subj})
		}
	}
	for _, ops := range [][]*skOp{append(puts, firsts...), rmws} {
		w := newPhase("preload")
		s.window(w, func() *skOp {
			if len(ops) == 0 {
				return nil
			}
			op := ops[0]
			ops = ops[1:]
			return s.fill(op)
		}, 0)
		if w.failed != 0 {
			return fmt.Errorf("preload: %d of %d ops failed %v", w.failed, w.attempted, w.fails)
		}
	}
	// Warm-up with the timed mix until the promiscuous caches have filled.
	w := newPhase("warmup")
	s.window(w, s.gen, 1500*time.Millisecond)
	if w.failed != 0 {
		return fmt.Errorf("warm-up: %d of %d ops failed %v", w.failed, w.attempted, w.fails)
	}
	return nil
}

// fill picks the node an op runs on; a knowledge write runs on its
// caller's writer, set when the op is issued.
func (s *storeKB) fill(op *skOp) *skOp {
	switch op.kind {
	case skPut, skBig:
		op.n = s.st.nodes[s.rng.Intn(skNodes)]
	case skGet:
		o := s.obj(op.obj)
		for {
			op.n = s.st.nodes[s.rng.Intn(skNodes)]
			if nodeIndex(s.st, op.n) != o.writer {
				break
			}
		}
	case skKBRead:
		op.n = s.readers[s.rng.Intn(len(s.readers))]
	}
	return op
}

func nodeIndex(st *stack, n *node) int {
	for i, m := range st.nodes {
		if m == n {
			return i
		}
	}
	return -1
}

// obj maps a pool index (big objects are offset by skSmallPool).
func (s *storeKB) obj(i int) *skObj {
	if i >= skSmallPool {
		return &s.big[i-skSmallPool]
	}
	return &s.small[i]
}

// gen draws the next op of the timed mix.
func (s *storeKB) gen() *skOp {
	op := &skOp{}
	switch x := s.rng.Intn(100); {
	case x < skPctPut:
		op.kind, op.obj = skPut, s.rng.Intn(skSmallPool)
	case x < skPctPut+skPctBig:
		op.kind, op.obj = skBig, skSmallPool+s.rng.Intn(skBigPool)
	case x < skPctPut+skPctBig+skPctGet:
		op.kind, op.obj = skGet, int(s.zipf.Uint64())
	case x < skPctPut+skPctBig+skPctGet+skPctWrite:
		op.kind, op.subject = skKBWrite, s.rng.Intn(skSubjects)
	default:
		op.kind, op.subject = skKBRead, s.rng.Intn(skSubjects)
	}
	return s.fill(op)
}

func (s *storeKB) run(d time.Duration, tr *tracer) []*phase {
	s.tr = tr
	p := newPhase("closed")
	for w := 0; w < windows; w++ {
		s.window(p, s.gen, d/windows)
	}
	p.finish()
	s.tr = nil
	return []*phase{p}
}

// window runs skCallers closed-loop callers from this goroutine for one
// window of p (length 0: until next runs out): each caller has at most
// one op in flight, and the window ends once its in-flight ops complete.
func (s *storeKB) window(p *phase, next func() *skOp, length time.Duration) {
	p.beginWindow(length)
	defer p.endWindow()
	var inflight [skCallers]*skOp
	var freed [skCallers]time.Time // when each caller's last op completed
	more := true
	timer := time.NewTimer(skOpTimeout)
	defer timer.Stop()
	for {
		n := 0
		for c := range inflight {
			if inflight[c] == nil && more && p.windowOpen() {
				op := next()
				if op == nil {
					more = false
					continue
				}
				op.caller = c
				if op.kind == skKBWrite {
					op.n = s.writers[c]
				}
				if !freed[c].IsZero() {
					p.late.add(time.Since(freed[c]))
				}
				s.issue(op, p)
				inflight[c] = op
			}
			if inflight[c] != nil {
				n++
			}
		}
		if n == 0 {
			return
		}
		timer.Reset(skOpTimeout)
		select {
		case op := <-s.done:
			inflight[op.caller] = nil
			freed[op.caller] = time.Now()
			s.complete(op, p)
		case <-timer.C:
			p.fail("store or knowledge op never called back", int64(n))
			for _, op := range inflight {
				if op != nil {
					op.wl.addInf(1)
				}
			}
			return
		}
	}
}

// skOpTimeout bounds one op: the store's default request timeout with its
// one retry, plus slack.
const skOpTimeout = 12 * time.Second

func subjectName(i int) string { return fmt.Sprintf("subject-%d", i) }

// issue starts op on its node's actor loop.
func (s *storeKB) issue(op *skOp, p *phase) {
	s.nextID++
	op.id = s.nextID
	op.start = time.Now()
	op.wl = p.winLat()
	p.attempted++
	switch op.kind {
	case skPut, skBig:
		op.data = s.obj(op.obj).data
		if op.kind == skBig {
			p.chunked++
		}
	case skGet:
		op.guid = s.obj(op.obj).guid
	case skKBWrite:
		s.fact++
		from := time.Duration(s.fact) * time.Millisecond
		op.fact = knowledge.Fact{S: subjectName(op.subject), P: fmt.Sprintf("w%d-slot%d", op.caller, s.fact%skSlots),
			O: fmt.Sprint(s.fact), From: from, To: from + 24*time.Hour}
		s.issued[op.fact] = true
	case skKBRead:
		op.want = maps.Clone(s.completed[op.subject])
	}
	tr := s.tr
	op.span = tr.begin("op."+skKindNames[op.kind], 0, op.id)
	n := op.n
	finish := func(err error) {
		op.callDur = time.Since(op.callT)
		op.err = err
		s.done <- op
	}
	n.ep.Do(func() {
		subj := subjectName(op.subject)
		switch op.kind {
		case skPut, skBig:
			h := tr.begin("store.put", op.span, op.id)
			op.callT = time.Now()
			n.an.Store.Put(op.data, func(g ids.ID, err error) {
				if err == nil && g != store.GUIDFor(op.data) {
					err = fmt.Errorf("put returned guid %s", g.Short())
				}
				finish(err)
			})
			tr.end(h)
		case skGet:
			h := tr.begin("store.get", op.span, op.id)
			op.callT = time.Now()
			n.an.Store.Get(op.guid, func(data []byte, err error) {
				op.got = data
				finish(err)
			})
			tr.end(h)
		case skKBWrite:
			publish := func() {
				for _, f := range n.an.KB.SubjectFacts(subj) {
					if f.P == op.fact.P {
						n.an.KB.Remove(f.S, f.P, f.O)
					}
				}
				n.an.KB.Add(op.fact)
				h := tr.begin("kb.publish", op.span, op.id)
				op.callT = time.Now()
				n.an.Sync.PublishSubject(subj, finish)
				tr.end(h)
			}
			if op.blind {
				publish()
				return
			}
			h := tr.begin("kb.fetch", op.span, op.id)
			n.an.Sync.FetchSubject(subj, func(err error) {
				if err != nil {
					finish(err)
					return
				}
				publish()
			})
			tr.end(h)
		case skKBRead:
			h := tr.begin("kb.fetch", op.span, op.id)
			op.callT = time.Now()
			n.an.Sync.FetchSubject(subj, func(err error) {
				if err == nil {
					op.facts = n.an.KB.SubjectFacts(subj)
				}
				finish(err)
			})
			tr.end(h)
		}
	})
}

// complete checks a finished op and updates the model.
func (s *storeKB) complete(op *skOp, p *phase) {
	total := time.Since(op.start)
	s.tr.end(op.span)
	kind := p.kind(skKindNames[op.kind])
	if op.err != nil {
		p.fail(fmt.Sprintf("%s error: %v", skKindNames[op.kind], op.err), 1)
		op.wl.addInf(1)
		kind.addInf(1)
		return
	}
	switch op.kind {
	case skPut, skBig:
		s.obj(op.obj).writer = nodeIndex(s.st, op.n)
	case skGet:
		o := s.obj(op.obj)
		if sha256.Sum256(op.got) != o.sum {
			p.fail("get bytes differ from the put", 1)
			op.wl.addInf(1)
			kind.addInf(1)
			return
		}
		if len(s.captured) < 64 {
			s.captured = append(s.captured, op.got)
		}
	case skKBWrite:
		if op.fact.From > s.completed[op.subject][op.fact.P] {
			s.completed[op.subject][op.fact.P] = op.fact.From
		}
	case skKBRead:
		got := map[string]time.Duration{}
		for _, f := range op.facts {
			if !s.issued[f] {
				p.fail("knowledge read returned a fact never written", 1)
				op.wl.addInf(1)
				kind.addInf(1)
				return
			}
			got[f.P] = f.From
		}
		key := [2]int{nodeIndex(s.st, op.n), op.subject}
		for pred, from := range s.lastRead[key] {
			if got[pred] < from {
				p.fail("knowledge read went back behind a fact this node had returned", 1)
				op.wl.addInf(1)
				kind.addInf(1)
				return
			}
		}
		s.lastRead[key] = got
		// A read that misses a write completed before it began is stale:
		// the knowledge plane reads through the store's promiscuous
		// caches, which hold mutable subjects without invalidation.
		// Counted and reported per layer, not failed.
		p.kbReads++
		for pred, from := range op.want {
			if got[pred] < from {
				p.stale++
				break
			}
		}
	}
	kind.add(op.callDur)
	op.wl.add(total)
	p.units++
}

func (s *storeKB) layer(a, b *snap, ph []*phase, tr *tracer, r *report) {
	// The dominant frames: chunk frames of chunked puts, routed small
	// puts and get replies, built from this run's objects.
	from, to := s.st.nodes[0].id(), s.st.nodes[1].id()
	var envs []*wire.Envelope
	for i, o := range s.big {
		for off := 0; off < len(o.data); off += skChunkBytes {
			end := min(off+skChunkBytes, len(o.data))
			envs = append(envs, &wire.Envelope{From: from, To: to, Msg: &store.ChunkMsg{Xfer: uint64(i), Off: off, Data: o.data[off:end]}})
		}
	}
	for i, d := range s.captured {
		envs = append(envs,
			&wire.Envelope{From: from, To: to, Msg: &store.PutMsg{GUID: store.GUIDFor(d).String(), ReqID: uint64(i), Origin: from.String(), Data: d}},
			&wire.Envelope{From: to, To: from, Msg: &store.GetReplyMsg{ReqID: uint64(i), GUID: store.GUIDFor(d).String(), Found: true, Data: d}})
	}
	replayWire(s.st.reg, envs, r)

	// Audit: writes that completed but that no stored copy of the
	// subject holds (nor anything newer for the predicate) once
	// replication has settled.
	time.Sleep(300 * time.Millisecond)
	unstored, total := 0, 0
	for subj := range s.completed {
		key := knowledge.SubjectKey(subjectName(subj))
		stored := map[string]time.Duration{}
		for _, n := range s.st.nodes {
			n.do(func() {
				if !n.an.Store.Holds(key) {
					return
				}
				n.an.Store.Get(key, func(data []byte, err error) {
					if err != nil {
						return
					}
					v, err := knowledge.DecodeVersionedFacts(data)
					if err != nil {
						return
					}
					for _, f := range knowledge.MergeFactSets(v.Values()) {
						stored[f.P] = max(stored[f.P], f.From)
					}
				})
			})
		}
		for pred, from := range s.completed[subj] {
			total++
			if stored[pred] < from {
				unstored++
			}
		}
	}
	r.addLayer("knowledge.unstored_facts", "count", float64(unstored),
		fmt.Sprintf("%d of %d subject predicates whose newest completed write no stored copy holds at pass end", unstored, total))
	for _, n := range []string{"store.put", "store.get", "kb.publish", "kb.fetch"} {
		spanStat(tr, n, "call."+n+"_us", r)
	}
}

func (s *storeKB) close() {
	if s.st != nil {
		s.st.close()
	}
}
