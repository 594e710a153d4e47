//! The structured event ring buffer.
//!
//! Spans (begin/end pairs) and instant events land in a fixed-capacity
//! ring; when full, the oldest events are overwritten rather than
//! blocking or growing — tracing must never stall the runtime. Draining
//! returns events oldest-first and reports how many were lost.

use crate::ids::Phase;

/// What an [`Event`] marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opens.
    Begin,
    /// A span closes.
    End,
    /// A point event with a value payload.
    Instant,
    /// A message left its sender: the payload is the flow id and
    /// `lamport` the sender's clock after the send tick.
    FlowSend,
    /// A message reached its destination: the payload is the flow id
    /// sent earlier and `lamport` the receiver's merged clock — together
    /// with the matching [`EventKind::FlowSend`] this is one
    /// happens-before edge of the marking wave.
    FlowRecv,
}

impl EventKind {
    /// Stable name (also the JSON value).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Begin => "begin",
            EventKind::End => "end",
            EventKind::Instant => "instant",
            EventKind::FlowSend => "flow_send",
            EventKind::FlowRecv => "flow_recv",
        }
    }

    /// The kind a [`name`](EventKind::name) stands for; `None` for
    /// anything else.
    pub fn parse(name: &str) -> Option<EventKind> {
        use EventKind::*;
        [Begin, End, Instant, FlowSend, FlowRecv]
            .into_iter()
            .find(|k| k.name() == name)
    }
}

/// One structured trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Microseconds since the registry was created.
    pub ts_us: u64,
    /// The PE the event happened on.
    pub pe: u16,
    /// The marking cycle it belongs to (0 outside any cycle).
    pub cycle: u32,
    /// Phase tag.
    pub phase: Phase,
    /// Begin / end / instant.
    pub kind: EventKind,
    /// Event name (static so recording never allocates).
    pub name: &'static str,
    /// Payload: the value for instant events, the flow id for
    /// flow-send/flow-recv events, 0 for spans.
    pub value: u64,
    /// Lamport timestamp for flow events (0 for everything else):
    /// ticked on send, merged (`max(local, sender) + 1`) on delivery, so
    /// comparing two flow events' clocks respects happens-before.
    pub lamport: u64,
}

/// A fixed-capacity overwrite-oldest ring of [`Event`]s.
#[derive(Debug)]
pub struct EventRing {
    buf: Vec<Event>,
    cap: usize,
    /// Index the next push writes to once the ring has wrapped.
    next: usize,
    dropped: u64,
}

impl EventRing {
    /// An empty ring holding at most `cap` events (at least 1).
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        EventRing {
            buf: Vec::with_capacity(cap),
            cap,
            next: 0,
            dropped: 0,
        }
    }

    /// Capacity in events.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Appends an event, overwriting the oldest when full.
    pub fn push(&mut self, e: Event) {
        if self.buf.len() < self.cap {
            self.buf.push(e);
        } else {
            self.buf[self.next] = e;
            self.next = (self.next + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Removes and returns all events, oldest first.
    pub fn drain(&mut self) -> Vec<Event> {
        let mut out = Vec::with_capacity(self.buf.len());
        // After wrapping, `next` points at the oldest event.
        out.extend_from_slice(&self.buf[self.next..]);
        out.extend_from_slice(&self.buf[..self.next]);
        self.buf.clear();
        self.next = 0;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts: u64) -> Event {
        Event {
            ts_us: ts,
            pe: 0,
            cycle: 0,
            phase: Phase::Gc,
            kind: EventKind::Instant,
            name: "t",
            value: ts,
            lamport: 0,
        }
    }

    #[test]
    fn drains_in_insertion_order() {
        let mut r = EventRing::new(8);
        for i in 0..5 {
            r.push(ev(i));
        }
        assert_eq!(r.len(), 5);
        let got: Vec<u64> = r.drain().iter().map(|e| e.ts_us).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn wraparound_keeps_newest_and_counts_drops() {
        let mut r = EventRing::new(4);
        for i in 0..10 {
            r.push(ev(i));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 6);
        let got: Vec<u64> = r.drain().iter().map(|e| e.ts_us).collect();
        assert_eq!(got, vec![6, 7, 8, 9], "oldest-first after wrapping");
    }

    #[test]
    fn drain_resets_for_reuse() {
        let mut r = EventRing::new(2);
        for i in 0..3 {
            r.push(ev(i));
        }
        assert_eq!(r.drain().len(), 2);
        r.push(ev(9));
        let got: Vec<u64> = r.drain().iter().map(|e| e.ts_us).collect();
        assert_eq!(got, vec![9]);
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let mut r = EventRing::new(0);
        assert_eq!(r.capacity(), 1);
        r.push(ev(1));
        r.push(ev(2));
        assert_eq!(r.drain().len(), 1);
    }
}
