package etcd

import "sync"

// WatchStream is a resumable, fault-tolerant event stream over a key or
// prefix. It is the watch primitive the control plane builds on (§3.3,
// §3.8: components record state in etcd and other components watch it).
//
// Contract:
//
//   - Events arrive in revision order, with no revision delivered twice.
//   - The stream survives leader changes and replica crashes: it tracks
//     the last delivered revision and re-attaches to a live replica,
//     replaying the gap from the replica's retained event history.
//   - Replay works across snapshot restore: each replica's watch
//     history (at least the last 1024 events) is persisted inside Raft
//     snapshots, so a stream re-attaching to a freshly-restored replica
//     still replays rather than resyncs.
//   - Buffers are bounded. If the consumer falls so far behind that the
//     gap cannot be replayed (history trimmed), the stream delivers an
//     EventResync marker followed by the current state under the watched
//     key/prefix as EventPut events, then continues live. Consumers may
//     therefore miss intermediate transitions but always converge on
//     current state; anyone tracking deletions must re-list on resync.
//   - The channel closes when the stream is cancelled or the cluster
//     stops.
//
// The normative statement of this contract — and how it composes with
// the kube store watch and the status bus — is docs/watch-protocol.md.
type WatchStream struct {
	c      *Cluster
	key    string
	prefix bool

	ch       chan Event
	stopCh   chan struct{}
	stopOnce sync.Once
}

// attachment is one live registration of a stream on a replica.
type attachment struct {
	src     int
	st      *storeState
	w       *watcher
	backlog []Event
	cancel  func()
}

// Events returns the stream's delivery channel.
func (ws *WatchStream) Events() <-chan Event { return ws.ch }

// Cancel releases the stream; the Events channel is closed.
func (ws *WatchStream) Cancel() { ws.stopOnce.Do(func() { close(ws.stopCh) }) }

// Watch streams events for key (prefix=false) or every key under it
// (prefix=true), starting at fromRevision (0 = events after the watch is
// registered). The watcher is registered before Watch returns, so a
// write issued afterwards is always observed. See WatchStream for the
// delivery contract.
func (c *Cluster) Watch(key string, prefix bool, fromRevision uint64) (*WatchStream, error) {
	// Barrier: wait until a leader replica has applied every revision
	// already acknowledged to clients, so "future events" cannot skip a
	// write the caller just made.
	if _, err := c.leaderState(); err != nil {
		return nil, err
	}
	ws := &WatchStream{
		c:      c,
		key:    key,
		prefix: prefix,
		ch:     make(chan Event, 128),
		stopCh: make(chan struct{}),
	}
	at, from, ok := ws.attach(fromRevision)
	if !ok {
		close(ws.ch)
		return nil, ErrStopped
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		ws.run(at, from)
	}()
	return ws, nil
}

// attach registers the stream on a live replica and returns the
// registration plus the normalized resume cursor. fromRev==0 is pinned
// to the registration-time revision so later re-attachments replay
// instead of silently skipping. Blocks until a replica is available;
// ok=false means the stream or cluster stopped first.
func (ws *WatchStream) attach(fromRev uint64) (attachment, uint64, bool) {
	c := ws.c
	for {
		if src, st := c.watchSource(); src >= 0 {
			st.mu.Lock()
			if fromRev == 0 {
				fromRev = st.rev + 1
			}
			st.mu.Unlock()
			w, backlog, cancel := st.addWatcherFrom(ws.key, ws.prefix, fromRev, 256)
			return attachment{src: src, st: st, w: w, backlog: backlog, cancel: cancel}, fromRev, true
		}
		if !ws.pause() {
			return attachment{}, fromRev, false
		}
	}
}

// run forwards events from the current attachment, re-attaching with
// replay whenever the source replica dies, is partitioned away, or this
// stream's buffer overflowed.
func (ws *WatchStream) run(at attachment, fromRev uint64) {
	defer close(ws.ch)
	c := ws.c
	for {
		ok := true
		for _, ev := range at.backlog {
			if !ws.deliver(ev, &fromRev) {
				at.cancel()
				return
			}
		}
		// The health ticker only bounds failure-detection latency; event
		// delivery itself is pushed.
		health := c.opts.Clock.NewTicker(c.opts.WatchHealthInterval)
		lastSrcRev := at.st.revision()
	stream:
		for {
			select {
			case <-ws.stopCh:
				ok = false
				break stream
			case <-c.stopCh:
				ok = false
				break stream
			case ev, open := <-at.w.ch:
				if !open {
					break stream // replica dropped us; re-attach
				}
				// An overflow means some event between the buffered ones
				// was dropped. Stop before advancing the cursor past the
				// gap: re-attaching replays from fromRev, so ev and
				// everything after it (including the dropped event) come
				// back in order. The drop sets the flag under the store
				// lock before any later event is enqueued, so this check
				// cannot miss a gap that precedes ev.
				if at.st.overflowOf(at.w) {
					break stream
				}
				if ev.Revision < fromRev {
					continue // duplicate across a re-attach
				}
				if !ws.deliver(ev, &fromRev) {
					ok = false
					break stream
				}
			case <-health.C:
				if at.st.overflowOf(at.w) {
					break stream // gap: re-attach with replay/resync
				}
				cur := at.st.revision()
				if c.transport.isIsolated(at.src) || ws.sourceStuck(at.src, cur, lastSrcRev) {
					break stream
				}
				lastSrcRev = cur
			}
		}
		health.Stop()
		at.cancel()
		if !ok {
			return
		}
		at, fromRev, ok = ws.attach(fromRev)
		if !ok {
			return
		}
	}
}

// sourceStuck reports whether the source replica stopped applying while
// the rest of the cluster made progress — e.g. a severed link that
// isIsolated cannot see.
func (ws *WatchStream) sourceStuck(src int, cur, last uint64) bool {
	c := ws.c
	if cur != last {
		return false
	}
	if li := c.leaderIndex(); li >= 0 && li != src {
		return c.states[li].revision() > cur
	}
	return false
}

// deliver blocks until the consumer accepts ev (or the stream ends) and
// advances the resume cursor.
func (ws *WatchStream) deliver(ev Event, fromRev *uint64) bool {
	select {
	case ws.ch <- ev:
		if ev.Revision >= *fromRev {
			*fromRev = ev.Revision + 1
		}
		return true
	case <-ws.stopCh:
		return false
	case <-ws.c.stopCh:
		return false
	}
}

// pause waits one tick before retrying attachment; it reports false when
// the stream should exit.
func (ws *WatchStream) pause() bool {
	t := ws.c.opts.Clock.NewTimer(ws.c.opts.TickInterval)
	defer t.Stop()
	select {
	case <-ws.stopCh:
		return false
	case <-ws.c.stopCh:
		return false
	case <-t.C:
		return true
	}
}

// watchSource picks the replica watches attach to: the current leader if
// one is reachable and caught up to every acknowledged write, else -1.
func (c *Cluster) watchSource() (int, *storeState) {
	li := c.leaderIndex()
	if li < 0 {
		return -1, nil
	}
	st := c.states[li]
	if st.revision() < c.lastRev.Load() {
		return -1, nil // still applying acknowledged writes; retry
	}
	return li, st
}
