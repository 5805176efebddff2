// Command perfbench is the repository benchmark: it boots the production
// TCP stack (transport.Listen nodes running core.NewActiveNode) on
// 127.0.0.1 inside one process, drives one named workload from one load
// generator goroutine, checks every output, and prints the end-to-end
// metrics (or, with -trace 1, the per-layer metrics of a traced run) with
// a JSON result as the last line of standard output.
//
//	go run . -workload fanout -seed 1 -seconds 10 -trace 0
//
// Workloads: fanout, context, store-kb. See README.md for what each
// stresses and which metric each per-layer figure should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// workload is one traffic mix against one stack.
type workload interface {
	// params describes the workload's fixed parameters for the header.
	params() string
	// setup boots the stack, installs subscriptions, rules, facts and
	// objects, and warms caches and connections.
	setup(seed int64) error
	// run drives the timed phases (closed loop, then open loop where the
	// workload has one) and returns them in order.
	run(d time.Duration, tr *tracer) []*phase
	// layer adds the workload's per-layer metrics for the phases between
	// snapshots a and b; probes replay captured inputs offline.
	layer(a, b *snap, ph []*phase, tr *tracer, r *report)
	stack() *stack
	close()
}

// phase is one timed stretch of load.
type phase struct {
	name      string
	elapsed   time.Duration
	cpu       time.Duration
	attempted int64
	failed    int64
	units     float64 // throughput numerator
	pubs      int64   // events the generator published
	chunked   int64   // chunked store puts issued
	kbReads   int64   // knowledge reads checked
	stale     int64   // of which missed a fact written before they began
	lat       *hist   // e2e latency samples of the whole phase (ops that failed count as +Inf)
	wlat      [windows]hist
	marks     []mark // start and end of each window
	cur       int    // current window
	wStart    time.Time
	wLen      time.Duration
	late      *hist // how late the generator issued each op
	kinds     map[string]*hist
	fails     map[string]int64 // failures by cause
}

func newPhase(name string) *phase {
	return &phase{name: name, lat: &hist{}, late: &hist{}, kinds: map[string]*hist{}, fails: map[string]int64{}}
}

// windows is how many windows a pass splits each timed phase into; a
// workload with two phases alternates their windows, so both sample the
// whole pass. Each window ends with an idle gap, so the next one starts
// from a drained system rather than inheriting queues and scheduling
// state, and the end-to-end figures are medians over the windows: a
// transient stall, or a slow stretch of the host, moves one window, not
// the run.
const windows = 5

// windowGap is the idle end of each window of at least 4 gaps.
const windowGap = 250 * time.Millisecond

// mark is the running totals at a window boundary.
type mark struct {
	t         time.Time
	units     float64
	attempted int64
	cpu       time.Duration
}

// beginWindow opens the phase's next window, length long (0 = untimed,
// ended by the caller), and marks it.
func (p *phase) beginWindow(length time.Duration) {
	p.cur = min(len(p.marks)/2, windows-1)
	p.wStart, p.wLen = time.Now(), length
	p.markNow()
}

func (p *phase) gap() time.Duration {
	if p.wLen >= 4*windowGap {
		return windowGap
	}
	return 0
}

// windowOpen reports whether the current window still takes new work.
func (p *phase) windowOpen() bool {
	return p.wLen == 0 || time.Since(p.wStart) < p.wLen-p.gap()
}

// endWindow marks the current window's end, then idles out its gap.
func (p *phase) endWindow() {
	p.markNow()
	time.Sleep(time.Until(p.wStart.Add(p.wLen)))
}

func (p *phase) markNow() {
	p.marks = append(p.marks, mark{time.Now(), p.units, p.attempted, cpuTime()})
}

// winLat is the latency histogram of the current window.
func (p *phase) winLat() *hist { return &p.wlat[p.cur] }

// finish totals the phase's windows and merges their histograms.
func (p *phase) finish() {
	for i := 1; i < len(p.marks); i += 2 {
		p.elapsed += p.marks[i].t.Sub(p.marks[i-1].t)
		p.cpu += p.marks[i].cpu - p.marks[i-1].cpu
	}
	for i := range p.wlat {
		p.lat.merge(&p.wlat[i])
	}
}

// perWindow returns f over each window, from its start and end marks.
func (p *phase) perWindow(f func(a, b mark) float64) []float64 {
	var out []float64
	for i := 1; i < len(p.marks); i += 2 {
		out = append(out, f(p.marks[i-1], p.marks[i]))
	}
	return out
}

func (p *phase) fail(cause string, n int64) {
	p.failed += n
	p.fails[cause] += n
}

func (p *phase) kind(k string) *hist {
	h, ok := p.kinds[k]
	if !ok {
		h = &hist{}
		p.kinds[k] = h
	}
	return h
}

// metric is one reported figure.
type metric struct {
	name, unit string
	value      float64
	note       string
}

// report collects the figures of one run. e2e and layer go into the JSON
// result; info lines are printed only.
type report struct {
	e2e, layer []metric
	info       []string
}

func (r *report) addLayer(name, unit string, v float64, note string) {
	r.layer = append(r.layer, metric{name, unit, v, note})
}

func (r *report) infof(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

// setupReps is how many times a run sets the stack up; setup_s is their
// median and the last stack is the one measured.
const setupReps = 3

func main() {
	var (
		name    = flag.String("workload", "", "workload: fanout, context or store-kb")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 10, "measured seconds per pass")
		trace   = flag.Int("trace", 0, "1 = also run a traced pass and report per-layer metrics")
		outDir  = flag.String("out", ".bench_build/perfbench-out", "directory for span dumps")
	)
	flag.Parse()
	// A run that hangs is a failed run: give up well inside the caller's
	// time limit.
	time.AfterFunc(170*time.Second, func() { fatalf("watchdog: run exceeded 170s") })

	mk, ok := workloads[*name]
	if !ok || *seconds < 1 {
		fatalf("usage: -workload fanout|context|store-kb -seed N -seconds S -trace 0|1")
	}
	d := time.Duration(*seconds) * time.Second

	var w workload
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if w != nil {
			w.close()
			runtime.GC()
		}
		w = mk()
		t0 := time.Now()
		if err := w.setup(*seed); err != nil {
			fatalf("setup: %v", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	header(*name, *seed, *seconds, *trace, w.params())
	heap := startHeapPeak()

	t0 := time.Now()
	plain := w.run(d, nil)
	r := &report{}
	e2e := endToEnd(plain)
	peak := heap.done(t0)
	r.e2e = append([]metric{{name: "setup_s", unit: "s", value: median(setups)}}, e2e...)
	r.e2e = append(r.e2e, metric{name: "peak_heap_mb", unit: "MiB", value: peak})
	r.infof("setup_s reps: %s", fmtFloats(setups))
	attempted, failed, fails := totals(plain)

	if *trace == 1 {
		tr := newTracer()
		ob := w.stack().startOutboxSampler()
		a := w.stack().snapshot()
		traced := w.run(d, tr)
		b := w.stack().snapshot()
		outboxKB := ob.done()
		ta, tf, tfails := totals(traced)
		attempted, failed = attempted+ta, failed+tf
		for k, v := range tfails {
			fails[k] += v
		}
		traceLayer(w, a, b, traced, tr, outboxKB, r)
		completeLayers(r)
		for i, m := range endToEnd(traced) {
			r.infof("trace overhead %s = %+.4f %s (traced %.4f - untraced %.4f)",
				m.name, m.value-e2e[i].value, m.unit, m.value, e2e[i].value)
		}
		path := filepath.Join(*outDir, fmt.Sprintf("spans-%s-seed%d.tsv", *name, *seed))
		if err := tr.write(path); err != nil {
			r.infof("span dump failed: %v", err)
		} else {
			r.infof("spans written to %s (%d kept, %d over the cap)", path, len(tr.spans), tr.lost.Load())
		}
	}
	w.close()

	correct := failed == 0
	for _, p := range plain {
		if p.units == 0 {
			correct = false
			fails["no deliveries or alerts in phase "+p.name]++
		}
	}
	printReport(*name, r, plain, attempted, failed, fails)

	res := map[string]any{"correct": correct, "attempted": attempted, "failed": failed}
	ms := map[string]any{}
	list := r.e2e
	if *trace == 1 {
		list = r.layer
	}
	for _, m := range list {
		ms[m.name] = map[string]any{"value": jsonNum(m.value), "unit": m.unit}
	}
	res["metrics"] = ms
	js, err := json.Marshal(res)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(js))
	if !correct {
		os.Exit(1)
	}
}

var workloads = map[string]func() workload{
	"fanout":   func() workload { return &fanout{} },
	"context":  func() workload { return &contextW{} },
	"store-kb": func() workload { return &storeKB{} },
}

// endToEnd derives the bound-checked metrics from a pass: throughput and
// CPU per op from its first (closed-loop) phase, latency from its last
// phase (open loop where the workload has one); each the median over the
// phase's windows.
func endToEnd(ph []*phase) []metric {
	c, l := ph[0], ph[len(ph)-1]
	return []metric{
		{name: "throughput_per_s", unit: "ops/s", value: median(c.perWindow(func(a, b mark) float64 {
			return (b.units - a.units) / b.t.Sub(a.t).Seconds()
		}))},
		{name: "latency_p50_ms", unit: "ms", value: l.windowQuantile(0.50)},
		{name: "cpu_us_per_op", unit: "us", value: median(c.perWindow(func(a, b mark) float64 {
			return float64((b.cpu - a.cpu).Microseconds()) / float64(max(b.attempted-a.attempted, 1))
		}))},
	}
}

// windowQuantile is the median over the phase's windows of each
// window's q-quantile latency, in ms.
func (p *phase) windowQuantile(q float64) float64 {
	var v []float64
	for i := range p.wlat {
		if p.wlat[i].count() > 0 {
			v = append(v, p.wlat[i].quantile(q))
		}
	}
	return median(v)
}

func totals(ph []*phase) (attempted, failed int64, fails map[string]int64) {
	fails = map[string]int64{}
	for _, p := range ph {
		attempted += p.attempted
		failed += p.failed
		for k, v := range p.fails {
			fails[k] += v
		}
	}
	return
}

// traceLayer computes the per-layer metrics every workload reports from
// the counter deltas and spans of the traced pass, then the workload's own.
func traceLayer(w workload, a, b *snap, ph []*phase, tr *tracer, outboxKB float64, r *report) {
	var ops int64
	late := &hist{}
	for _, p := range ph {
		ops += p.attempted
		late.merge(p.late)
	}
	sent := float64(b.tr.Sent - a.tr.Sent)
	r.addLayer("loadgen.late_p99_ms", "ms", late.quantile(0.99), fmt.Sprintf("n=%d", late.count()))
	r.addLayer("transport.frames_per_op", "count", ratio(sent, float64(ops)), fmt.Sprintf("%.0f frames / %d ops", sent, ops))
	writes := float64(b.tr.FlushWrites - a.tr.FlushWrites)
	r.addLayer("transport.frames_per_write", "count", ratio(sent, writes), fmt.Sprintf("%.0f frames / %.0f writes", sent, writes))
	bin := float64(b.tr.SentBinary - a.tr.SentBinary)
	r.addLayer("transport.binary_frac", "ratio", ratio(bin, sent), fmt.Sprintf("%.0f binary / %.0f frames", bin, sent))
	r.addLayer("transport.outbox_peak_kb", "KiB", outboxKB, "max sampled per-peer queued bytes")
	r.addLayer("transport.dropped", "count", float64(b.tr.Dropped-a.tr.Dropped), fmt.Sprintf("overflow=%d noaddr=%d encode=%d dialfail=%d",
		b.tr.DroppedOverflow-a.tr.DroppedOverflow, b.tr.DroppedNoAddr-a.tr.DroppedNoAddr,
		b.tr.DroppedEncode-a.tr.DroppedEncode, b.tr.DroppedDialFail-a.tr.DroppedDialFail))
	counterLayers(a, b, ph, r)
	w.layer(a, b, ph, tr, r)
	allocB := float64(b.rt.allocBytes - a.rt.allocBytes)
	allocN := float64(b.rt.allocObjs - a.rt.allocObjs)
	r.addLayer("runtime.alloc_kb_per_op", "KiB", ratio(allocB/1024, float64(ops)), fmt.Sprintf("%.0f KiB / %d ops", allocB/1024, ops))
	r.addLayer("runtime.allocs_per_op", "count", ratio(allocN, float64(ops)), fmt.Sprintf("%.0f allocs / %d ops", allocN, ops))
	gc, tot := b.rt.gcCPU-a.rt.gcCPU, b.rt.totalCPU-a.rt.totalCPU
	r.addLayer("runtime.gc_cpu_frac", "ratio", ratio(gc, tot), fmt.Sprintf("%.3f gc cpu-s / %.3f cpu-s", gc, tot))
	r.addLayer("runtime.sched_lat_p99_us", "us", schedP99us(a.rt, b.rt), "/sched/latencies delta")

	self := tr.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		r.infof("trace.%s.self_ms_p50 = %.5f ms (n=%d spans)", n, median(self[n]), len(self[n]))
	}
}

// layerCatalogue lists the per-layer metrics every traced run reports,
// as BENCHMARK.json declares them. A workload that bypasses a layer
// reports that layer's counts as zero; every time-valued metric is
// measured on every workload.
var layerCatalogue = []struct{ name, unit string }{
	{"loadgen.late_p99_ms", "ms"},
	{"transport.frames_per_op", "count"},
	{"transport.frames_per_write", "count"},
	{"transport.binary_frac", "ratio"},
	{"transport.outbox_peak_kb", "KiB"},
	{"transport.dropped", "count"},
	{"wire.encode_ns", "ns"},
	{"wire.decode_ns", "ns"},
	{"wire.bytes", "B"},
	{"wire.xml_encode_ns", "ns"},
	{"wire.xml_decode_ns", "ns"},
	{"wire.xml_bytes", "B"},
	{"pubsub.endpoint_dlv_per_pub", "count"},
	{"pubsub.handlers_per_frame", "count"},
	{"pubsub.shed_frac", "ratio"},
	{"pubsub.duplicates", "count"},
	{"match.joins_per_event", "count"},
	{"match.emitted_per_event", "count"},
	{"match.suppressed_frac", "ratio"},
	{"knowledge.absorbed_per_read", "count"},
	{"knowledge.sibling_merges_per_read", "count"},
	{"knowledge.read_repairs_per_read", "count"},
	{"knowledge.stale_read_frac", "ratio"},
	{"knowledge.unstored_facts", "count"},
	{"store.local_hit_frac", "ratio"},
	{"store.cache_hit_frac", "ratio"},
	{"store.replica_hit_frac", "ratio"},
	{"store.chunk_frames_per_put", "count"},
	{"store.retries_per_kop", "count"},
	{"store.timeouts", "count"},
	{"store.repair_kb_per_s", "KiB/s"},
	{"plaxton.forwards_per_route", "count"},
	{"runtime.alloc_kb_per_op", "KiB"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.sched_lat_p99_us", "us"},
}

// completeLayers checks the traced report against the catalogue and
// fills the layers this workload bypasses.
func completeLayers(r *report) {
	have := map[string]string{}
	for _, m := range r.layer {
		if _, dup := have[m.name]; dup {
			fatalf("per-layer metric %s reported twice", m.name)
		}
		have[m.name] = m.unit
	}
	for _, c := range layerCatalogue {
		unit, ok := have[c.name]
		switch {
		case !ok && (c.unit == "count" || c.unit == "ratio"):
			r.addLayer(c.name, c.unit, 0, "layer not on this workload's path")
		case !ok:
			fatalf("per-layer metric %s not measured", c.name)
		case unit != c.unit:
			fatalf("per-layer metric %s has unit %s, want %s", c.name, unit, c.unit)
		}
		delete(have, c.name)
	}
	for n := range have {
		fatalf("per-layer metric %s is not in the catalogue", n)
	}
}

// header prints the run parameters.
func header(name string, seed int64, seconds, trace int, params string) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%d trace=%d\n", name, seed, seconds, trace)
	fmt.Printf("# nproc=%d GOMAXPROCS=%d go=%s commit=%s link=loopback\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
	fmt.Printf("# params: %s\n", params)
}

func printReport(name string, r *report, plain []*phase, attempted, failed int64, fails map[string]int64) {
	for _, m := range r.e2e {
		fmt.Printf("e2e %s %s = %.6g %s\n", name, m.name, m.value, m.unit)
	}
	l := plain[len(plain)-1]
	fmt.Printf("e2e %s latency_p90_ms = %.6g ms, latency_p99_ms = %.6g ms (window medians; not bound-checked, see README)\n",
		name, l.windowQuantile(0.90), l.windowQuantile(0.99))
	for _, p := range plain {
		fmt.Printf("phase %s: %d ops, %d failed, %.3fs, cpu %.3fs, latency n=%d (%d beyond p99) p50=%.4f ms p90=%.4f ms p99=%.4f ms\n",
			p.name, p.attempted, p.failed, p.elapsed.Seconds(), p.cpu.Seconds(), p.lat.count(), p.lat.beyond(0.99),
			p.lat.quantile(0.5), p.lat.quantile(0.9), p.lat.quantile(0.99))
		if len(p.marks) > 1 && p == plain[0] {
			fmt.Printf("  %s windows: units/s %s\n", p.name, fmtFloats(p.perWindow(func(a, b mark) float64 {
				return (b.units - a.units) / b.t.Sub(a.t).Seconds()
			})))
		}
		var p50s, p99s []float64
		for i := range p.wlat {
			if p.wlat[i].count() > 0 {
				p50s, p99s = append(p50s, p.wlat[i].quantile(0.5)), append(p99s, p.wlat[i].quantile(0.99))
			}
		}
		if len(p50s) > 0 {
			fmt.Printf("  %s windows: p50 ms %s; p99 ms %s\n", p.name, fmtFloats(p50s), fmtFloats(p99s))
		}
		kinds := make([]string, 0, len(p.kinds))
		for k := range p.kinds {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			h := p.kinds[k]
			fmt.Printf("  %s %s_p50_ms = %.4f ms, %s_p99_ms = %.4f ms (n=%d)\n", p.name, k, h.quantile(0.5), k, h.quantile(0.99), h.count())
		}
	}
	fmt.Printf("e2e %s failed_frac = %.6g ratio (%d failed / %d attempted)\n", name, ratio(float64(failed), float64(attempted)), failed, attempted)
	for cause, n := range fails {
		fmt.Printf("failure %s: %d\n", cause, n)
	}
	for _, m := range r.layer {
		fmt.Printf("layer %s %s = %.6g %s (%s)\n", name, m.name, m.value, m.unit, m.note)
	}
	for _, l := range r.info {
		fmt.Println("info", l)
	}
}

// jsonNum keeps non-finite values out of the JSON result.
func jsonNum(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return -1
	}
	return v
}

func fmtFloats(xs []float64) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(s, " ")
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}
