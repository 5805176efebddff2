package main

import (
	"fmt"
	"time"

	"github.com/gloss/active/internal/wire"
)

// probeBudget is how long one offline replay probe runs.
const probeBudget = 150 * time.Millisecond

// timePerOp replays fn over inputs for probeBudget and returns the mean
// microseconds per call.
func timePerOp[T any](inputs []T, fn func(T)) float64 {
	if len(inputs) == 0 {
		return 0
	}
	var n int
	t0 := time.Now()
	for time.Since(t0) < probeBudget {
		for _, in := range inputs {
			fn(in)
		}
		n += len(inputs)
	}
	return float64(time.Since(t0).Microseconds()) / float64(n)
}

// replayWire re-encodes and re-decodes the workload's captured messages
// through both codecs: the binary codec every endpoint prefers and the
// XML registry codec links fall back to before a hello arrives.
func replayWire(reg *wire.Registry, envs []*wire.Envelope, r *report) {
	type codec interface {
		Encode(*wire.Envelope) ([]byte, error)
		Decode([]byte) (*wire.Envelope, error)
	}
	for _, c := range []struct {
		prefix string
		codec  codec
	}{{"wire.", wire.NewBinaryCodec(reg)}, {"wire.xml_", reg}} {
		frames := make([][]byte, 0, len(envs))
		var bytes int
		for _, env := range envs {
			fr, err := c.codec.Encode(env)
			if err != nil {
				fatalf("replay encode %s: %v", env.Msg.Kind(), err)
			}
			frames = append(frames, fr)
			bytes += len(fr)
		}
		enc := timePerOp(envs, func(env *wire.Envelope) { _, _ = c.codec.Encode(env) })
		dec := timePerOp(frames, func(fr []byte) { _, _ = c.codec.Decode(fr) })
		note := fmt.Sprintf("%d captured %s messages", len(envs), kinds(envs))
		r.addLayer(c.prefix+"encode_ns", "ns", enc*1000, note)
		r.addLayer(c.prefix+"decode_ns", "ns", dec*1000, note)
		r.addLayer(c.prefix+"bytes", "B", ratio(float64(bytes), float64(len(envs))), note)
	}
}

func kinds(envs []*wire.Envelope) string {
	seen := map[string]bool{}
	out := ""
	for _, e := range envs {
		if k := e.Msg.Kind(); !seen[k] {
			seen[k] = true
			if out != "" {
				out += "+"
			}
			out += k
		}
	}
	return out
}

// spanStat prints the median duration of the named harness span, in
// microseconds, as a per-layer figure of the workload.
func spanStat(tr *tracer, span, name string, r *report) {
	self := tr.selfTimes()[span]
	r.infof("%s = %.3f us (median self time of %d %q spans)", name, median(self)*1000, len(self), span)
}

// counterLayers derives the counter-based per-layer metrics from the
// snapshot deltas. A layer a workload bypasses reads zero.
func counterLayers(a, b *snap, ph []*phase, r *report) {
	var pubs, chunked, ops, kbReads, stale int64
	var elapsed time.Duration
	for _, p := range ph {
		pubs += p.pubs
		chunked += p.chunked
		kbReads += p.kbReads
		stale += p.stale
		ops += p.attempted
		elapsed += p.elapsed
	}
	d := func(x, y uint64) float64 { return float64(y - x) }

	dlv := d(a.br.ClientDelivers, b.br.ClientDelivers)
	shed := d(a.br.ShedDeliveries, b.br.ShedDeliveries)
	handled := d(a.cliDlv, b.cliDlv)
	r.addLayer("pubsub.endpoint_dlv_per_pub", "count", ratio(dlv, float64(pubs)), fmt.Sprintf("%.0f ClientDelivers / %d publishes", dlv, pubs))
	r.addLayer("pubsub.handlers_per_frame", "count", ratio(handled, dlv), fmt.Sprintf("%.0f Client.Delivered / %.0f delivered frames", handled, dlv))
	r.addLayer("pubsub.shed_frac", "ratio", ratio(shed, dlv+shed), fmt.Sprintf("%.0f ShedDeliveries / %.0f", shed, dlv+shed))
	r.addLayer("pubsub.duplicates", "count", d(a.cliDup, b.cliDup), "Client.Duplicates")

	in := d(a.eng.EventsIn, b.eng.EventsIn)
	emitted, supp := d(a.eng.Emitted, b.eng.Emitted), d(a.eng.Suppressed, b.eng.Suppressed)
	joins := d(a.eng.Joins, b.eng.Joins)
	r.addLayer("match.joins_per_event", "count", ratio(joins, in), fmt.Sprintf("%.0f joins / %.0f events in (cond fails %.0f, errors %.0f)",
		joins, in, d(a.eng.CondFails, b.eng.CondFails), d(a.eng.Errors, b.eng.Errors)))
	r.addLayer("match.emitted_per_event", "count", ratio(emitted, in), fmt.Sprintf("%.0f emitted / %.0f events in", emitted, in))
	r.addLayer("match.suppressed_frac", "ratio", ratio(supp, emitted+supp), fmt.Sprintf("%.0f suppressed / %.0f", supp, emitted+supp))

	fetches := d(a.sync.Fetches, b.sync.Fetches)
	for _, m := range []struct {
		name string
		v    float64
	}{
		{"knowledge.absorbed_per_read", d(a.sync.Absorbed, b.sync.Absorbed)},
		{"knowledge.sibling_merges_per_read", d(a.sync.SiblingMerges, b.sync.SiblingMerges)},
		{"knowledge.read_repairs_per_read", d(a.sync.ReadRepairs, b.sync.ReadRepairs)},
	} {
		r.addLayer(m.name, "count", ratio(m.v, fetches), fmt.Sprintf("%.0f / %.0f Syncer fetches", m.v, fetches))
	}

	r.addLayer("knowledge.stale_read_frac", "ratio", ratio(float64(stale), float64(kbReads)),
		fmt.Sprintf("%d of %d reads missed a fact written before they began", stale, kbReads))

	gets := d(a.st.Gets, b.st.Gets)
	for _, m := range []struct {
		name string
		v    float64
	}{
		{"store.local_hit_frac", d(a.st.LocalHits, b.st.LocalHits)},
		{"store.cache_hit_frac", d(a.st.CacheHits, b.st.CacheHits)},
		{"store.replica_hit_frac", d(a.st.ReplicaHits, b.st.ReplicaHits)},
	} {
		r.addLayer(m.name, "ratio", ratio(m.v, gets), fmt.Sprintf("%.0f / %.0f Store gets (root answers %.0f)", m.v, gets, d(a.st.RootAnswers, b.st.RootAnswers)))
	}
	cf := d(a.st.ChunkFramesSent, b.st.ChunkFramesSent)
	r.addLayer("store.chunk_frames_per_put", "count", ratio(cf, float64(chunked)), fmt.Sprintf("%.0f ChunkFramesSent / %d chunked puts", cf, chunked))
	sops := d(a.st.Puts, b.st.Puts) + gets
	retries := d(a.st.Retries, b.st.Retries)
	r.addLayer("store.retries_per_kop", "count", ratio(retries*1000, sops), fmt.Sprintf("%.0f retries / %.0f store ops", retries, sops))
	r.addLayer("store.timeouts", "count", d(a.st.Timeouts, b.st.Timeouts), "Store.Stats Timeouts")
	rb := d(a.st.RepairBytes, b.st.RepairBytes)
	r.addLayer("store.repair_kb_per_s", "KiB/s", ratio(rb/1024, elapsed.Seconds()), fmt.Sprintf("%.0f repair bytes / %.2fs", rb, elapsed.Seconds()))

	fwd, del := d(a.ov.Forwarded, b.ov.Forwarded), d(a.ov.Delivered, b.ov.Delivered)
	r.addLayer("plaxton.forwards_per_route", "count", ratio(fwd, del), fmt.Sprintf("%.0f forwarded / %.0f delivered", fwd, del))
}
