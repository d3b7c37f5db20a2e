package objstore

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
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
	got, err := s.GetRange("training", "data/shard1", 0, -1)
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
	if _, err := s.GetRange("b", "nope", 0, -1); !errors.Is(err, ErrNoObject) {
		t.Fatalf("err = %v", err)
	}
	// Re-ensuring an existing bucket keeps its objects.
	if err := s.Put("b", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	s.EnsureBucket("b")
	if got, err := s.GetRange("b", "k", 0, -1); err != nil || string(got) != "v" {
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

// TestGetRangeIsAReadOnlyView pins the zero-copy read: GetRange
// allocates nothing, and a view taken before a re-Put of the key still
// reads the old bytes after it, since Put stores a fresh copy.
func TestGetRangeIsAReadOnlyView(t *testing.T) {
	s := newSvc()
	s.EnsureBucket("b")
	if err := s.Put("b", "k", []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() { _, _ = s.GetRange("b", "k", 2, 3) }); got != 0 {
		t.Fatalf("GetRange = %.0f allocations, want 0", got)
	}
	view, err := s.GetRange("b", "k", 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if cap(view) != len(view) {
		t.Fatalf("view cap %d beyond its length %d: an append would write the object", cap(view), len(view))
	}
	src := []byte("abcdefghij")
	if err := s.Put("b", "k", src); err != nil {
		t.Fatal(err)
	}
	src[3] = 'X' // the caller's buffer is not the stored object
	if string(view) != "234" {
		t.Fatalf("view taken before the re-Put reads %q, want \"234\"", view)
	}
	if got, _ := s.GetRange("b", "k", 2, 3); string(got) != "cde" {
		t.Fatalf("range after the re-Put = %q, want \"cde\"", got)
	}
	// 101 reads in AllocsPerRun (a warm-up and 100 runs) and 2 after.
	if _, out := s.Stats(); out != 3*103 {
		t.Fatalf("bytes out = %d, want %d", out, 3*103)
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

// TestListDirectoryIndexMatchesScan checks List against a brute-force
// prefix filter for prefixes that read the directory index (with '/')
// and prefixes that scan (without), including re-Put keys and keys in
// no directory.
func TestListDirectoryIndexMatchesScan(t *testing.T) {
	s := newSvc()
	s.EnsureBucket("r")
	keys := []string{"job1/checkpoints/0001", "job1/checkpoints/0002", "job1/model", "job10/checkpoints/0001",
		"job2/checkpoints/0001", "job1/checkpoints/0001", "readme", "job1", "a/b/c/d"}
	for _, k := range keys {
		if err := s.Put("r", k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	for _, prefix := range []string{"", "job", "job1", "job1/", "job1/checkpoints/", "job1/c", "job10/",
		"job3/", "a/b/", "/", "readme"} {
		var want []string
		for _, k := range keys {
			if strings.HasPrefix(k, prefix) && !slices.Contains(want, k) {
				want = append(want, k)
			}
		}
		sort.Strings(want)
		objs, err := s.List("r", prefix)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, o := range objs {
			got = append(got, o.Key)
		}
		if !slices.Equal(got, want) {
			t.Errorf("List(%q) = %v, want %v", prefix, got, want)
		}
	}
}

// TestListCostIndependentOfOtherJobs pins the checkpoint listing by
// counts: listing one job's checkpoints allocates the same with 10 or
// 10,000 other jobs' results in the bucket.
func TestListCostIndependentOfOtherJobs(t *testing.T) {
	listing := func(otherJobs int) func() {
		s := newSvc()
		s.EnsureBucket("results")
		for i := 0; i < otherJobs; i++ {
			job := fmt.Sprintf("training-%06d", i)
			for _, k := range []string{"/checkpoints/000100", "/model"} {
				if err := s.Put("results", job+k, []byte("x")); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, k := range []string{"job/checkpoints/000100", "job/checkpoints/000200", "job/model"} {
			if err := s.Put("results", k, []byte("x")); err != nil {
				t.Fatal(err)
			}
		}
		return func() {
			if objs, _ := s.List("results", "job/checkpoints/"); len(objs) != 2 {
				t.Fatalf("listed %d checkpoints, want 2", len(objs))
			}
		}
	}
	small, large := listing(10), listing(10_000)
	if a, b := testing.AllocsPerRun(100, small), testing.AllocsPerRun(100, large); a != b {
		t.Errorf("%v allocs with 10 other jobs, %v with 10,000", a, b)
	}
	if a, b := allocBytesPerRun(100, small), allocBytesPerRun(100, large); a != b {
		t.Errorf("%d B/op with 10 other jobs, %d B/op with 10,000", a, b)
	}
}

// allocBytesPerRun reports f's mean allocated bytes per call, measured
// the way testing.AllocsPerRun measures allocation counts.
func allocBytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestMountReadAllIsAView: a mount read of a one-chunk and of a
// several-chunk object makes no allocation and returns the stored
// object as a view capped at its length, which a later Put of the same
// key leaves as it was.
func TestMountReadAllIsAView(t *testing.T) {
	s := newSvc()
	s.EnsureBucket("data")
	m := s.NewMount("data", 0)
	for _, size := range []int{1 << 10, 4<<20 + 1<<10} {
		want := bytes.Repeat([]byte{3}, size)
		if err := s.Put("data", "shard", want); err != nil {
			t.Fatal(err)
		}
		var got []byte
		if n := testing.AllocsPerRun(20, func() { got, _ = m.ReadAll("shard") }); n != 0 {
			t.Fatalf("ReadAll of %d bytes made %.0f allocations, want 0", size, n)
		}
		if !bytes.Equal(got, want) || cap(got) != len(got) {
			t.Fatalf("ReadAll of %d bytes: len %d cap %d, want a view of exactly the object", size, len(got), cap(got))
		}
		if err := s.Put("data", "shard", bytes.Repeat([]byte{9}, size)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("a re-Put changed the view of a %d-byte object", size)
		}
	}
	if _, err := m.ReadAll("missing"); !errors.Is(err, ErrNoObject) {
		t.Fatalf("ReadAll of a missing object: %v, want ErrNoObject", err)
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
				if _, err := s.GetRange("b", key, 0, -1); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
