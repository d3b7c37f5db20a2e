package etcd

import "fmt"

// WatchStream is a live event stream over a key or prefix. It is the
// watch primitive the control plane builds on (§3.3, §3.8: components
// record state in etcd and other components watch it); its consumers
// use it as a wake-up and re-read the state they need.
//
// Contract:
//
//   - Events arrive live, in revision order, with no revision delivered
//     twice. There is no replay: a stream sees the writes its replica
//     applies after Watch registered it, and nothing earlier.
//   - The channel closes on Cancel, on cluster stop, when the consumer
//     falls a full buffer behind, and when the replica the stream is
//     registered on stops being the leader. The close is the only gap
//     signal: the consumer re-watches, then re-reads.
//
// The normative statement of this contract — and how it composes with
// the kube store watch and the status bus — is docs/watch-protocol.md.
type WatchStream struct {
	st *storeState
	w  *watcher
}

// Events returns the stream's delivery channel.
func (ws *WatchStream) Events() <-chan Event { return ws.w.ch }

// Cancel releases the stream; the Events channel is closed.
func (ws *WatchStream) Cancel() { ws.st.removeWatcher(ws.w) }

// watchBuffer is a stream's channel capacity: a consumer that falls this
// many events behind has its stream closed. It is sized to the traffic a
// Guardian's job watch carries, at twice the deepest backlog measured on
// the bench workloads: a one-learner job's stream carries 2–6 events in
// the job's whole life, with at most 4 waiting at once, and a
// four-learner gang's 5–16, with at most 11 waiting. At 24 events of 72
// bytes, the buffer is one 1,792-byte allocation.
const watchBuffer = 24

// Watch streams live events for key (prefix=false) or every key under
// it (prefix=true). The stream is registered before Watch returns, on a
// leader that has applied every acknowledged write, so a write issued
// afterwards is either delivered or preceded by the channel's close.
// fromRevision must be 0: a stream cannot resume from a revision, and a
// non-zero value is an error that registers nothing. See WatchStream
// for the delivery contract.
func (c *Cluster) Watch(key string, prefix bool, fromRevision uint64) (*WatchStream, error) {
	if fromRevision != 0 {
		return nil, fmt.Errorf("etcd: watch %q: resuming from revision %d is not supported", key, fromRevision)
	}
	for {
		// Barrier: wait until a leader replica has applied every revision
		// already acknowledged to clients, so "future events" cannot skip
		// a write the caller just made.
		st, err := c.leaderState()
		if err != nil {
			return nil, err
		}
		ws := &WatchStream{st: st, w: st.addWatcher(key, prefix, watchBuffer)}
		if c.stopped.Load() {
			ws.Cancel()
			return nil, ErrStopped
		}
		// Leadership that moved between the barrier and the registration
		// may have been swept by watchLoop before this watcher existed.
		if li := c.leaderIndex(); li >= 0 && c.states[li] == st {
			return ws, nil
		}
		ws.Cancel()
	}
}

// watchLoop closes every stream registered on a replica that is not the
// leader, so a stream is trusted only while its replica leads. It wakes
// on the leadership broadcast, which fires on every role change,
// Isolate and cutLink, and closes every stream when the cluster stops.
// It takes each node lock (in leaderIndex) before, never while, it takes
// a store lock.
func (c *Cluster) watchLoop() {
	for {
		sig := c.leadershipSignal()
		li := c.leaderIndex()
		for i, st := range c.states {
			if i != li {
				st.closeWatchers()
			}
		}
		select {
		case <-sig:
		case <-c.stopCh:
			for _, st := range c.states {
				st.closeWatchers()
			}
			return
		}
	}
}
