package objstore

import (
	"bytes"
	"errors"
	"sync"
	"testing"
)

func newSvc() *Service {
	return New(Config{})
}

func TestPutGetRoundTrip(t *testing.T) {
	s := newSvc()
	s.EnsureBucket("training")
	data := []byte("imagenet-shard-0001")
	if err := s.Put("training", "data/shard1", data); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("training", "data/shard1")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q", got)
	}
}

func TestBucketLifecycle(t *testing.T) {
	s := newSvc()
	s.EnsureBucket("b")
	if err := s.Put("missing", "k", nil); !errors.Is(err, ErrNoBucket) {
		t.Fatalf("err = %v", err)
	}
	if _, err := s.Get("b", "nope"); !errors.Is(err, ErrNoObject) {
		t.Fatalf("err = %v", err)
	}
	// Re-ensuring an existing bucket keeps its objects.
	if err := s.Put("b", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	s.EnsureBucket("b")
	if got, err := s.Get("b", "k"); err != nil || string(got) != "v" {
		t.Fatalf("after re-ensure: %q, %v", got, err)
	}
}

func TestGetRange(t *testing.T) {
	s := newSvc()
	s.EnsureBucket("b")
	if err := s.Put("b", "k", []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	got, err := s.GetRange("b", "k", 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "234" {
		t.Fatalf("range = %q", got)
	}
	got, err = s.GetRange("b", "k", 7, -1)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "789" {
		t.Fatalf("open range = %q", got)
	}
	if _, err := s.GetRange("b", "k", 11, 1); err == nil {
		t.Fatal("out-of-range read succeeded")
	}
}

func TestListSortedByPrefix(t *testing.T) {
	s := newSvc()
	s.EnsureBucket("ckpt")
	for _, k := range []string{"job1/ckpt-3", "job1/ckpt-1", "job1/ckpt-2", "job2/ckpt-1"} {
		if err := s.Put("ckpt", k, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	objs, err := s.List("ckpt", "job1/")
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 3 {
		t.Fatalf("len = %d", len(objs))
	}
	// Latest checkpoint discovery = last in sorted order.
	if objs[len(objs)-1].Key != "job1/ckpt-3" {
		t.Fatalf("latest = %s", objs[len(objs)-1].Key)
	}
}

func TestMountCacheHitsAcrossEpochs(t *testing.T) {
	s := newSvc()
	s.EnsureBucket("data")
	dataset := bytes.Repeat([]byte{7}, 10<<20) // 10 MiB
	if err := s.Put("data", "train.rec", dataset); err != nil {
		t.Fatal(err)
	}
	m := s.NewMount("data", 64<<20)
	// Epoch 1: every chunk comes from the backend.
	got, err := m.ReadAll("train.rec")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, dataset) {
		t.Fatal("epoch 1 data mismatch")
	}
	_, out1 := s.Stats()
	if out1 != int64(len(dataset)) {
		t.Fatalf("epoch 1 fetched %d bytes, want %d", out1, len(dataset))
	}
	// Epoch 2: all hits, no new backend bytes.
	got, err = m.ReadAll("train.rec")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, dataset) {
		t.Fatal("epoch 2 data mismatch")
	}
	if _, out2 := s.Stats(); out2 != out1 {
		t.Fatalf("epoch 2 fetched %d more bytes from the backend", out2-out1)
	}
}

func TestMountCacheEviction(t *testing.T) {
	s := newSvc()
	s.EnsureBucket("data")
	if err := s.Put("data", "a", bytes.Repeat([]byte{1}, 8<<20)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("data", "b", bytes.Repeat([]byte{2}, 8<<20)); err != nil {
		t.Fatal(err)
	}
	m := s.NewMount("data", 8<<20) // holds only one file's chunks
	if _, err := m.ReadAll("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ReadAll("b"); err != nil {
		t.Fatal(err)
	}
	// Re-reading a must miss (evicted by b).
	_, pre := s.Stats()
	if _, err := m.ReadAll("a"); err != nil {
		t.Fatal(err)
	}
	if _, post := s.Stats(); post == pre {
		t.Fatal("expected evictions to force re-fetch")
	}
}

func TestConcurrentPutsAndGets(t *testing.T) {
	s := newSvc()
	s.EnsureBucket("b")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := string(rune('a' + w))
			for i := 0; i < 30; i++ {
				if err := s.Put("b", key, []byte{byte(i)}); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.Get("b", key); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
