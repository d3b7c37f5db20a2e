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

// BenchmarkStoreScale times the calls a Guardian makes, on a bare
// replica holding N jobs. Each job has four keys under jobs/<id>/ and
// one prefix watcher on jobs/<id>/, drained after every write, as its
// Guardian holds. The ops rotate over the jobs: List of one job's
// learners/, a Put to one existing key, and a DeletePrefix of one job
// followed by re-creating its four keys. Each op's cost should not
// depend on N.
func BenchmarkStoreScale(b *testing.B) {
	suffixes := []string{"control", "done", "learners/0/status", "learners/1/status"}
	for _, jobs := range []int{50, 200, 1000, 4000} {
		s := newStoreState()
		prefixes := make([]string, jobs)
		learners := make([]string, jobs)
		keys := make([][]string, jobs)
		watchers := make([]*watcher, jobs)
		value := []byte("RUNNING")
		put := func(key string) { s.apply(&command{Op: opPut, Key: key, Value: value}) }
		for j := range jobs {
			prefixes[j] = fmt.Sprintf("jobs/training-%06d/", j)
			learners[j] = prefixes[j] + "learners/"
			for _, suf := range suffixes {
				k := prefixes[j] + suf
				keys[j] = append(keys[j], k)
				put(k)
			}
			watchers[j] = s.addWatcher(prefixes[j], true, watchBuffer)
		}
		drain := func(j int) {
			w := watchers[j]
			for len(w.ch) > 0 {
				<-w.ch
			}
		}
		b.Run(fmt.Sprintf("jobs=%d/list", jobs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				if kvs := s.list(learners[i%jobs]); len(kvs) != 2 {
					b.Fatalf("List %s = %d KVs, want 2", learners[i%jobs], len(kvs))
				}
			}
		})
		b.Run(fmt.Sprintf("jobs=%d/put", jobs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				put(keys[i%jobs][2])
				drain(i % jobs)
			}
		})
		b.Run(fmt.Sprintf("jobs=%d/delete-recreate", jobs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				j := i % jobs
				s.apply(&command{Op: opDelete, Key: prefixes[j], Prefix: true})
				for _, k := range keys[j] {
					put(k)
				}
				drain(j)
			}
		})
	}
}
