//! Live event subscription: a bounded broadcast ring that lets any number
//! of consumers tail the telemetry stream without perturbing the run.
//!
//! The producer side ([`SubscriberSink`]) is an [`EventSink`] attached to a
//! [`Telemetry`](crate::Telemetry) handle like any other sink. Its `emit`
//! never blocks and never waits on consumers: it appends to a fixed-size
//! ring and, when the ring is full, evicts the oldest event and charges an
//! explicit drop counter. A consumer that falls behind therefore loses
//! (counted) events — the estimation loop never stalls, which is the
//! contract the parallel engine's bit-identity guarantee depends on.
//!
//! The consumer side hands out [`Subscriber`] cursors from a cloneable
//! [`SubscriberHub`]. Each subscriber tracks its own position in the global
//! event stream; [`Subscriber::poll`] is non-blocking, [`Subscriber::wait`]
//! parks on a condvar until events arrive or the hub closes. Per-subscriber
//! drop accounting is exact: a batch reports how many events this consumer
//! missed since its previous batch.
//!
//! [`forward`] bridges the pull world back to the push world: it spawns a
//! thread that drains one subscriber into any inner [`EventSink`], so slow
//! sinks (terminal progress lines, pipes) run off the hot emit path.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

use crate::event::EventRecord;
use crate::sink::EventSink;

/// Default ring capacity used by [`SubscriberSink::bounded`] callers that
/// have no better number: large enough that an interactive consumer keeps
/// up, small enough to bound memory (~96 bytes/event → a few MiB).
pub const DEFAULT_SUBSCRIBER_CAPACITY: usize = 16 * 1024;

#[derive(Debug)]
struct RingState {
    ring: VecDeque<EventRecord>,
    /// Global stream index of `ring.front()` (== index of the oldest event
    /// still buffered). Monotone; advances on eviction.
    head: u64,
    /// Global stream index one past the newest buffered event.
    next: u64,
    /// Total events evicted before reaching the ring's tail — the
    /// producer-side drop account (per-subscriber misses are derived from
    /// cursors and can only be ≤ this).
    dropped: u64,
    closed: bool,
}

#[derive(Debug)]
struct Shared {
    capacity: usize,
    state: Mutex<RingState>,
    readable: Condvar,
}

/// The producer half: attach to a [`Telemetry`](crate::Telemetry) handle
/// with `add_sink`. Created together with its [`SubscriberHub`] by
/// [`SubscriberSink::bounded`].
#[derive(Debug)]
pub struct SubscriberSink {
    shared: Arc<Shared>,
}

impl SubscriberSink {
    /// Creates a ring of at most `capacity` buffered events plus the hub
    /// that hands out consumers. `capacity` is clamped to at least 1.
    #[must_use]
    pub fn bounded(capacity: usize) -> (SubscriberSink, SubscriberHub) {
        let shared = Arc::new(Shared {
            capacity: capacity.max(1),
            state: Mutex::new(RingState {
                ring: VecDeque::new(),
                head: 0,
                next: 0,
                dropped: 0,
                closed: false,
            }),
            readable: Condvar::new(),
        });
        (
            SubscriberSink {
                shared: Arc::clone(&shared),
            },
            SubscriberHub { shared },
        )
    }
}

impl EventSink for SubscriberSink {
    fn emit(&mut self, record: &EventRecord) {
        let mut st = self.shared.state.lock().expect("subscriber ring poisoned");
        if st.closed {
            return;
        }
        if st.ring.len() >= self.shared.capacity {
            st.ring.pop_front();
            st.head += 1;
            st.dropped += 1;
        }
        st.ring.push_back(record.clone());
        st.next += 1;
        drop(st);
        self.readable_notify();
    }

    fn flush_sink(&mut self) {
        // Nothing buffered on the producer side; wake any waiting
        // consumers so they observe the latest events promptly.
        self.readable_notify();
    }
}

impl SubscriberSink {
    fn readable_notify(&self) {
        self.shared.readable.notify_all();
    }
}

/// One batch of events drained by a [`Subscriber`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Batch {
    /// Events this subscriber missed since its previous batch (evicted
    /// from the ring before the subscriber got to them).
    pub dropped: u64,
    /// The drained events, in emission order.
    pub events: Vec<EventRecord>,
}

/// Hands out [`Subscriber`] cursors and owns the close signal. Cloneable;
/// all clones share one ring.
#[derive(Debug, Clone)]
pub struct SubscriberHub {
    shared: Arc<Shared>,
}

impl SubscriberHub {
    /// A new consumer starting at the oldest event still buffered.
    #[must_use]
    pub fn subscribe(&self) -> Subscriber {
        let st = self.shared.state.lock().expect("subscriber ring poisoned");
        Subscriber {
            shared: Arc::clone(&self.shared),
            cursor: st.head,
        }
    }

    /// Total events evicted from the ring before consumption (the
    /// producer-side drop account).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.shared
            .state
            .lock()
            .expect("subscriber ring poisoned")
            .dropped
    }

    /// Closes the stream: producers stop appending, blocked consumers wake
    /// up, and subscribers report end-of-stream once drained. Idempotent.
    pub fn close(&self) {
        let mut st = self.shared.state.lock().expect("subscriber ring poisoned");
        st.closed = true;
        drop(st);
        self.shared.readable.notify_all();
    }
}

/// A consumer cursor over the shared ring. Each subscriber advances
/// independently; falling behind costs (counted) drops, never stalls the
/// producer.
#[derive(Debug)]
pub struct Subscriber {
    shared: Arc<Shared>,
    /// Global stream index of the next event this subscriber wants.
    cursor: u64,
}

fn drain(cursor: &mut u64, st: &RingState) -> Batch {
    let mut batch = Batch::default();
    if *cursor < st.head {
        batch.dropped = st.head - *cursor;
        *cursor = st.head;
    }
    let start = (*cursor - st.head) as usize;
    batch.events.extend(st.ring.iter().skip(start).cloned());
    *cursor = st.next;
    batch
}

impl Subscriber {
    /// Non-blocking drain: everything buffered past this subscriber's
    /// cursor (possibly nothing), plus the count of missed events.
    pub fn poll(&mut self) -> Batch {
        let st = self.shared.state.lock().expect("subscriber ring poisoned");
        drain(&mut self.cursor, &st)
    }

    /// Blocking drain: parks until at least one event is available or the
    /// hub closes. Returns `None` only at end-of-stream (closed *and*
    /// fully drained).
    pub fn wait(&mut self) -> Option<Batch> {
        let mut st = self.shared.state.lock().expect("subscriber ring poisoned");
        loop {
            if self.cursor < st.next {
                return Some(drain(&mut self.cursor, &st));
            }
            if st.closed {
                return None;
            }
            st = self
                .shared
                .readable
                .wait(st)
                .expect("subscriber ring poisoned");
        }
    }
}

/// Handle to a [`forward`] thread. Join it (after closing the hub) to get
/// the forwarded-event statistics and the inner sink back.
pub struct ForwardHandle {
    thread: std::thread::JoinHandle<(u64, u64, Box<dyn EventSink>)>,
}

impl ForwardHandle {
    /// Waits for the forwarder to drain the stream (the hub must be closed
    /// first or this blocks forever). Returns `(forwarded, dropped)` event
    /// counts as seen by this consumer.
    pub fn join(self) -> (u64, u64) {
        let (forwarded, dropped, _) =
            self.thread
                .join()
                .unwrap_or((0, 0, Box::new(NullSink) as Box<dyn EventSink>));
        (forwarded, dropped)
    }
}

struct NullSink;

impl EventSink for NullSink {
    fn emit(&mut self, _record: &EventRecord) {}
}

/// Spawns a thread that drains `subscriber` into `sink`, decoupling a
/// slow push-style sink from the producer's emit path. The thread exits —
/// after a final drain and `flush_sink` — when the hub is closed.
#[must_use]
pub fn forward(mut subscriber: Subscriber, mut sink: Box<dyn EventSink>) -> ForwardHandle {
    let thread = std::thread::spawn(move || {
        let mut forwarded = 0u64;
        let mut dropped = 0u64;
        while let Some(batch) = subscriber.wait() {
            dropped += batch.dropped;
            for event in &batch.events {
                sink.emit(event);
                forwarded += 1;
            }
            sink.flush_sink();
        }
        sink.flush_sink();
        (forwarded, dropped, sink)
    });
    ForwardHandle { thread }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, EventRecord};
    use crate::sink::{JsonlSink, SharedBuffer};

    fn counter_rec(seq: u64) -> EventRecord {
        EventRecord {
            seq,
            t_ns: seq,
            worker: None,
            kind: EventKind::Counter {
                name: "c".to_string(),
                delta: 1,
            },
        }
    }

    #[test]
    fn subscriber_sees_everything_when_keeping_up() {
        let (mut sink, hub) = SubscriberSink::bounded(16);
        let mut sub = hub.subscribe();
        for i in 0..5 {
            sink.emit(&counter_rec(i));
        }
        let batch = sub.poll();
        assert_eq!(batch.dropped, 0);
        assert_eq!(batch.events.len(), 5);
        assert_eq!(batch.events[4].seq, 4);
        // Nothing new: the next poll is empty, no phantom drops.
        let batch = sub.poll();
        assert_eq!(batch, Batch::default());
        assert_eq!(hub.dropped(), 0);
    }

    #[test]
    fn overflow_evicts_oldest_and_counts_drops() {
        let (mut sink, hub) = SubscriberSink::bounded(4);
        let mut sub = hub.subscribe();
        for i in 0..10 {
            sink.emit(&counter_rec(i));
        }
        let batch = sub.poll();
        assert_eq!(batch.dropped, 6);
        assert_eq!(batch.events.len(), 4);
        // The survivors are the newest four, in order.
        let seqs: Vec<u64> = batch.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        assert_eq!(hub.dropped(), 6);
    }

    #[test]
    fn independent_subscribers_have_independent_cursors() {
        let (mut sink, hub) = SubscriberSink::bounded(16);
        let mut early = hub.subscribe();
        sink.emit(&counter_rec(0));
        assert_eq!(early.poll().events.len(), 1);
        // A late subscriber starts at the oldest *buffered* event.
        let mut late = hub.subscribe();
        sink.emit(&counter_rec(1));
        assert_eq!(early.poll().events.len(), 1);
        let late_batch = late.poll();
        assert_eq!(late_batch.events.len(), 2);
        assert_eq!(late_batch.dropped, 0);
    }

    #[test]
    fn wait_returns_none_after_close_and_drain() {
        let (mut sink, hub) = SubscriberSink::bounded(8);
        let mut sub = hub.subscribe();
        sink.emit(&counter_rec(0));
        hub.close();
        // Buffered events are still delivered after close…
        let batch = sub.wait().expect("buffered event before close");
        assert_eq!(batch.events.len(), 1);
        // …then the stream ends.
        assert!(sub.wait().is_none());
        // Post-close emits are discarded, not buffered.
        sink.emit(&counter_rec(1));
        assert!(sub.poll().events.is_empty());
    }

    #[test]
    fn blocked_wait_wakes_on_close() {
        let (_sink, hub) = SubscriberSink::bounded(8);
        let mut sub = hub.subscribe();
        let waiter = std::thread::spawn(move || sub.wait().is_none());
        std::thread::sleep(std::time::Duration::from_millis(20));
        hub.close();
        assert!(waiter.join().expect("waiter must not panic"));
    }

    #[test]
    fn forward_drains_into_inner_sink() {
        let (mut sink, hub) = SubscriberSink::bounded(64);
        let buf = SharedBuffer::new();
        let handle = forward(hub.subscribe(), Box::new(JsonlSink::new(buf.clone())));
        for i in 0..10 {
            sink.emit(&counter_rec(i));
        }
        hub.close();
        let (forwarded, dropped) = handle.join();
        assert_eq!(forwarded, 10);
        assert_eq!(dropped, 0);
        assert_eq!(buf.contents().lines().count(), 10);
    }

    #[test]
    fn producer_never_blocks_on_a_stalled_consumer() {
        // A tiny ring and a consumer that never polls: emits must all
        // complete immediately, dropping the surplus.
        let (mut sink, hub) = SubscriberSink::bounded(2);
        let mut stalled = hub.subscribe();
        let started = std::time::Instant::now();
        for i in 0..10_000 {
            sink.emit(&counter_rec(i));
        }
        assert!(
            started.elapsed() < std::time::Duration::from_secs(5),
            "emit path must not block on consumers"
        );
        assert_eq!(hub.dropped(), 9_998);
        let batch = stalled.poll();
        assert_eq!(batch.dropped, 9_998);
        assert_eq!(batch.events.len(), 2);
    }
}
