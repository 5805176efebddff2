package store

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/gloss/active/internal/ids"
)

// Every held body keeps the hash64 of its bytes next to them, set when
// the bytes are stored. These tests check the held hashes against a
// recomputed hash64, and show that chunked sends and repair digests use
// the held hash instead of re-hashing.

// staleHashes lists every held object or cache entry whose held hash is
// not the hash64 of its bytes.
func staleHashes(c *cluster) []string {
	var out []string
	for i, s := range c.stores {
		for guid, b := range s.objects {
			if b.hash != hash64(b.data) {
				out = append(out, fmt.Sprintf("node %d object %s", i, guid.Short()))
			}
		}
		for guid, el := range s.cache.items {
			if it := el.Value.(*lruItem); it.hash != hash64(it.data) {
				out = append(out, fmt.Sprintf("node %d cache %s", i, guid.Short()))
			}
		}
	}
	return out
}

// TestHeldHashesTrackBytes: small and chunked puts, overwrites of the
// same keys with new bodies, reads that fill caches through whole-frame
// and chunked replies, and repair rounds all leave every held hash equal
// to the hash of the bytes it sits next to.
func TestHeldHashesTrackBytes(t *testing.T) {
	c := buildCluster(t, 91, 12, Options{Replicas: 3, ChunkBytes: 1024, RepairInterval: 2 * time.Second})
	rng := rand.New(rand.NewSource(91))
	const nkeys = 10
	keys := make([]ids.ID, nkeys)
	for i := range keys {
		keys[i] = ids.FromString(fmt.Sprintf("mutable-%d", i))
	}
	latest := make([][]byte, nkeys)
	putAll := func(round int) {
		acked := 0
		for i := range keys {
			body := make([]byte, 200+rng.Intn(4000)) // about half are chunked
			rng.Read(body)
			latest[i] = body
			c.stores[(i+round)%len(c.stores)].PutAs(keys[i], body, func(err error) {
				if err == nil {
					acked++
				}
			})
		}
		c.world.RunFor(10 * time.Second)
		if acked != nkeys {
			t.Fatalf("round %d: acked %d of %d puts", round, acked, nkeys)
		}
	}
	putAll(0)
	putAll(1) // overwrite every key with a new body
	got := 0
	for r := 0; r < 3; r++ {
		for i, key := range keys {
			want := latest[i]
			c.stores[(i+3*r+5)%len(c.stores)].Get(key, func(d []byte, err error) {
				if err != nil || string(d) != string(want) {
					t.Errorf("get %s: err=%v, %d bytes, want the overwrite's %d", key.Short(), err, len(d), len(want))
				}
				got++
			})
		}
		c.world.RunFor(5 * time.Second)
	}
	if got != 3*nkeys {
		t.Fatalf("%d of %d gets completed", got, 3*nkeys)
	}
	var chunked, cached uint64
	for _, s := range c.stores {
		st := s.Stats()
		chunked += st.ChunkFramesRecv
		cached += uint64(st.CacheObjects)
	}
	if chunked == 0 || cached == 0 {
		t.Fatalf("workload missed a path: %d chunk frames received, %d cached objects", chunked, cached)
	}
	if stale := staleHashes(c); len(stale) > 0 {
		t.Fatalf("held hashes differ from their bytes: %v", stale)
	}
	for i, key := range keys {
		for j, s := range c.stores {
			if b, ok := s.objects[key]; ok && s.isRoot(key) && string(b.data) != string(latest[i]) {
				t.Errorf("root node %d holds an old body of %s", j, key.Short())
			}
		}
	}
}

// TestRepairDigestsUseHeldHash: a wrong held hash, on either side of a
// digest round, makes the root re-push a replica whose bytes are in fact
// current. Re-hashing the bytes would have found them equal and skipped
// the push. A replica's wrong hash is replaced with the pushed body's, so
// the round after quiesces again.
func TestRepairDigestsUseHeldHash(t *testing.T) {
	c := buildCluster(t, 93, 16, Options{Replicas: 3, RepairInterval: time.Second})
	var guids []ids.ID
	for i := 0; i < 6; i++ {
		c.stores[i].Put([]byte(fmt.Sprintf("digest-object-%d", i)), func(g ids.ID, err error) {
			if err == nil {
				guids = append(guids, g)
			}
		})
	}
	c.world.RunFor(15 * time.Second)
	if len(guids) != 6 {
		t.Fatalf("acked %d of 6 puts", len(guids))
	}
	pushes := func() (n uint64) {
		for _, s := range c.stores {
			n += s.Stats().RepairPushes
		}
		return n
	}
	quiet := func(when string) {
		t.Helper()
		before := pushes()
		c.world.RunFor(3 * time.Second)
		if d := pushes() - before; d != 0 {
			t.Fatalf("%s: %d repair pushes across a stable cluster", when, d)
		}
	}
	quiet("before any hash is changed")

	root, replica := -1, -1
	guid := guids[0]
	for i, s := range c.stores {
		switch {
		case !s.Holds(guid):
		case s.isRoot(guid):
			root = i
		case replica < 0:
			replica = i
		}
	}
	if root < 0 || replica < 0 {
		t.Fatalf("object %s: root %d, replica %d", guid.Short(), root, replica)
	}

	// The root's own held hash is wrong: every replica looks stale to it.
	rs := c.stores[root]
	good := rs.objects[guid]
	rs.objects[guid] = blob{data: good.data, hash: good.hash ^ 1}
	before := pushes()
	c.world.RunFor(1500 * time.Millisecond)
	if pushes() == before {
		t.Fatal("root with a wrong held hash pushed nothing: handleDigest re-hashed its bytes")
	}
	rs.objects[guid] = good
	quiet("root hash restored")

	// A replica's held hash is wrong: its digest reports it, the root
	// re-pushes, and the replica stores the pushed body with its true hash.
	hs := c.stores[replica]
	hs.objects[guid] = blob{data: good.data, hash: good.hash ^ 1}
	before = pushes()
	c.world.RunFor(1500 * time.Millisecond)
	if pushes() == before {
		t.Fatal("replica with a wrong held hash was not re-pushed: handleDigestReq re-hashed its bytes")
	}
	if b := hs.objects[guid]; b.hash != hash64(b.data) {
		t.Fatalf("replica still holds a wrong hash after the push")
	}
	quiet("replica re-pushed")
}

// TestChunkedSendUsesHeldHash: when every holder's held hash of a chunked
// object is wrong, the manifest carries it and the reader's reassembly
// rejects the body. A sender that re-hashed would have sent the right one.
func TestChunkedSendUsesHeldHash(t *testing.T) {
	c := buildCluster(t, 95, 12, Options{Replicas: 3, ChunkBytes: 512, RepairInterval: -1})
	body := make([]byte, 4<<10)
	rand.New(rand.NewSource(95)).Read(body)
	var guid ids.ID
	c.stores[0].Put(body, func(g ids.ID, err error) {
		if err != nil {
			t.Errorf("put: %v", err)
		}
		guid = g
	})
	c.world.RunFor(10 * time.Second)
	if guid.IsZero() {
		t.Fatal("put not acknowledged")
	}
	reader := -1
	for i, s := range c.stores {
		if b, ok := s.objects[guid]; ok {
			s.objects[guid] = blob{data: b.data, hash: b.hash ^ 1}
		} else if reader < 0 && i != 0 {
			reader = i
		}
	}
	rd := c.stores[reader]
	var getErr error
	done := false
	rd.Get(guid, func(_ []byte, err error) { getErr, done = err, true })
	c.world.RunFor(20 * time.Second)
	if !done || getErr == nil {
		t.Fatalf("get of a body sent under a wrong hash: done=%v err=%v, want a failed get", done, getErr)
	}
	if rd.Stats().ChunkCorrupt == 0 {
		t.Fatal("reader saw no corrupt transfer: the sender re-hashed the body")
	}
}
