package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the harness made into a layer. Parent is the
// index+1 of the enclosing span (0 = root); Op ties the spans of one
// benchmark operation together.
type span struct {
	Name       string
	Start, End int64 // ns since the tracer's epoch
	Parent     int32
	Op         uint64
}

// tracer keeps spans in memory; they are written out when the run ends.
// A nil *tracer records nothing, so the untraced run pays one nil check
// per call site.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	lost  atomic.Uint64
}

// maxSpans bounds the in-memory trace; spans past it are counted, not kept.
const maxSpans = 1 << 21

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its handle (index+1), or 0 when off.
func (t *tracer) begin(name string, parent int32, op uint64) int32 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.lost.Add(1)
		return 0
	}
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Op: op})
	return int32(len(t.spans))
}

// end closes a span opened by begin.
func (t *tracer) end(h int32) {
	if t == nil || h == 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[h-1].End = now
	t.mu.Unlock()
}

// selfTimes returns, per span name, each span's duration minus the part
// of its interval covered by its children.
func (t *tracer) selfTimes() map[string][]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int32][][2]int64)
	for _, s := range t.spans {
		if s.Parent != 0 && s.End != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string][]float64)
	for i, s := range t.spans {
		if s.End == 0 {
			continue
		}
		self := s.End - s.Start - covered(children[int32(i+1)], s.Start, s.End)
		out[s.Name] = append(out[s.Name], float64(self)/1e6)
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := [2]int64{-1, -1}
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a >= b {
			continue
		}
		if a > cur[1] {
			if cur[1] > cur[0] {
				total += cur[1] - cur[0]
			}
			cur = [2]int64{a, b}
		} else if b > cur[1] {
			cur[1] = b
		}
	}
	if cur[1] > cur[0] {
		total += cur[1] - cur[0]
	}
	return total
}

// write dumps the spans as tab-separated lines:
// index, parent, op, name, start_ns, end_ns.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	fmt.Fprintf(w, "# idx\tparent\top\tname\tstart_ns\tend_ns (lost=%d)\n", t.lost.Load())
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", i+1, s.Parent, s.Op, s.Name, s.Start, s.End)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
