package etcd

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// benchCluster boots a 3-node cluster outside the timed section.
func benchCluster(b *testing.B, opts Options) *Cluster {
	b.Helper()
	if opts.TickInterval == 0 {
		opts.TickInterval = 2 * time.Millisecond
	}
	c, err := NewCluster(opts)
	if err != nil {
		b.Fatalf("NewCluster: %v", err)
	}
	b.Cleanup(c.Stop)
	return c
}

// benchPuts measures proposals/sec at the given concurrency.
func benchPuts(b *testing.B, opts Options, writers int) {
	c := benchCluster(b, opts)
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	per := b.N / writers
	if per == 0 {
		per = 1
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := c.Put(fmt.Sprintf("bench/w%d", w), []byte("v"), 0); err != nil {
					b.Errorf("Put: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	b.StopTimer()
	st := c.Stats()
	if st.Entries > 0 {
		b.ReportMetric(float64(st.Commands)/float64(st.Entries), "cmds/entry")
	}
}

// BenchmarkEtcdPutSerial is the uncontended floor: batching cannot help
// a strictly serial writer.
func BenchmarkEtcdPutSerial(b *testing.B) { benchPuts(b, Options{}, 1) }

// BenchmarkEtcdPutConcurrent64 is the group-commit hot path: 64
// concurrent proposers share Raft entries.
func BenchmarkEtcdPutConcurrent64(b *testing.B) { benchPuts(b, Options{}, 64) }
