package service

import (
	"bytes"
	"errors"
	"image/png"
	"sync"
	"testing"

	"resilientfusion/internal/core"
)

// sameArray reports whether two PNG byte slices share one backing array,
// i.e. came from a single encode.
func sameArray(a, b []byte) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }

// runDone submits cube and waits for it to finish successfully.
func runDone(t *testing.T, pool *Pool, seed int64) JobStatus {
	t.Helper()
	st, err := pool.Submit(testCube(t, seed), core.Options{Threshold: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if st, err = pool.Wait(st.ID); err != nil || st.State != StateDone {
		t.Fatalf("job %s: %v %+v", st.ID, err, st)
	}
	return st
}

// TestCacheHitsShareOnePNG pins the PNG memo per cache entry: the run
// that computed a result and every later hit on its key (at enqueue, or
// on the dequeue re-check for a twin queued behind it) serve the bytes
// of one encode.
func TestCacheHitsShareOnePNG(t *testing.T) {
	pool, err := NewPool(Config{Workers: 2, MaxConcurrent: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	// Back to back on one dispatcher: the second is either a hit at
	// enqueue or a twin that hits on the dequeue re-check.
	first := runDone(t, pool, 40)
	twin := runDone(t, pool, 40)
	hit := runDone(t, pool, 40)
	if !twin.CacheHit || !hit.CacheHit {
		t.Fatalf("repeats not served from cache: %v %v", twin.CacheHit, hit.CacheHit)
	}
	want, err := pool.ImagePNG(first.ID)
	if err != nil {
		t.Fatal(err)
	}
	var ref bytes.Buffer
	if err := png.Encode(&ref, first.Result.Image); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, ref.Bytes()) {
		t.Fatal("memoized PNG differs from encoding the composite")
	}
	for _, id := range []string{twin.ID, hit.ID, first.ID} {
		got, err := pool.ImagePNG(id)
		if err != nil {
			t.Fatal(err)
		}
		if !sameArray(got, want) {
			t.Errorf("%s: PNG encoded again instead of shared", id)
		}
	}
}

// TestUncachedJobsKeepPrivatePNG: without a cache entry to share, each
// job memoizes its own encode.
func TestUncachedJobsKeepPrivatePNG(t *testing.T) {
	pool, err := NewPool(Config{Workers: 2, CacheEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	a, b := runDone(t, pool, 41), runDone(t, pool, 41)
	pa, err := pool.ImagePNG(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	pa2, err := pool.ImagePNG(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := pool.ImagePNG(b.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !sameArray(pa, pa2) {
		t.Error("one job's PNG encoded twice")
	}
	if sameArray(pa, pb) || !bytes.Equal(pa, pb) {
		t.Error("uncached jobs should encode identical bytes separately")
	}
}

// TestStrippedJobKeepsCachePNG: a job leaving the RetainResults window
// loses its composite, but the cache entry it shared keeps the PNG for
// the next hit.
func TestStrippedJobKeepsCachePNG(t *testing.T) {
	pool, err := NewPool(Config{Workers: 2, RetainResults: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	old := runDone(t, pool, 42)
	want, err := pool.ImagePNG(old.ID)
	if err != nil {
		t.Fatal(err)
	}
	runDone(t, pool, 43) // pushes old out of the window
	if _, err := pool.ImagePNG(old.ID); !errors.Is(err, ErrImageExpired) {
		t.Fatalf("stripped job ImagePNG err = %v, want ErrImageExpired", err)
	}
	hit := runDone(t, pool, 42)
	if !hit.CacheHit {
		t.Fatal("repeat not served from cache")
	}
	got, err := pool.ImagePNG(hit.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !sameArray(got, want) {
		t.Error("cache entry lost its PNG when the old job was stripped")
	}
}

// TestConcurrentImagePNGSharedEntry races first requests for one shared
// entry's PNG across jobs; meant for go test -race.
func TestConcurrentImagePNGSharedEntry(t *testing.T) {
	pool, err := NewPool(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	ids := []string{runDone(t, pool, 44).ID}
	for range 5 {
		ids = append(ids, runDone(t, pool, 44).ID)
	}
	out := make([][]byte, 2*len(ids))
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			data, err := pool.ImagePNG(ids[i%len(ids)])
			if err != nil {
				t.Error(err)
			}
			out[i] = data
		}()
	}
	wg.Wait()
	for i, data := range out {
		if !sameArray(data, out[0]) {
			t.Errorf("caller %d got a separate encode", i)
		}
	}
}
