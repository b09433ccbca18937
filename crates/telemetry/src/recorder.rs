//! Recorders: where the engine hands its stamped events.
//!
//! The contract every recorder must honor: **observation only**. A
//! recorder never draws randomness, never reads wall clocks, and the
//! engine never branches on recorder state — so a run produces
//! bit-identical results whether it records into a ring, or into the
//! zero-overhead no-op. Counting is not these recorders' job: the engine
//! folds every event into its own [`EventFold`](crate::EventFold) (itself
//! a [`Recorder`]) before it hands the event on.

use crate::event::Record;
use shoggoth_util::RingBuffer;

/// Sink for stamped telemetry events.
///
/// The simulation engine is generic over its recorder, so the no-op
/// implementation compiles away entirely (static dispatch, empty inlined
/// bodies).
pub trait Recorder {
    /// Accepts one stamped event.
    fn record(&mut self, record: Record);
}

/// The zero-overhead recorder: drops every event at compile time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    #[inline(always)]
    fn record(&mut self, _record: Record) {}
}

/// A bounded in-memory recorder backed by `shoggoth-util`'s ring buffer.
///
/// Keeps the most recent `capacity` records verbatim, evicting the oldest
/// first and counting the evictions.
#[derive(Debug, Clone)]
pub struct RingRecorder {
    ring: RingBuffer<Record>,
    events_dropped: u64,
}

impl RingRecorder {
    /// Default ring capacity: enough for several minutes of per-frame
    /// status events plus the sparser pipeline events.
    pub const DEFAULT_CAPACITY: usize = 65_536;

    /// Creates a recorder keeping at most `capacity` raw records
    /// (a zero capacity is promoted to 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            ring: RingBuffer::new(capacity.max(1)),
            events_dropped: 0,
        }
    }

    /// Events the bounded ring has evicted.
    pub fn events_dropped(&self) -> u64 {
        self.events_dropped
    }

    /// Copies out the retained records, oldest → newest.
    pub fn records(&self) -> Vec<Record> {
        self.ring.iter().copied().collect()
    }

    /// Drains the retained records, oldest → newest, leaving the ring
    /// empty (the eviction count is kept).
    pub fn drain_records(&mut self) -> Vec<Record> {
        self.ring.drain()
    }
}

impl Default for RingRecorder {
    fn default() -> Self {
        Self::new(Self::DEFAULT_CAPACITY)
    }
}

impl Recorder for RingRecorder {
    fn record(&mut self, record: Record) {
        if self.ring.push(record).is_some() {
            self.events_dropped += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;

    fn skipped(frame: u64) -> Record {
        Record::new(frame as f64 / 30.0, frame, Event::SampleSkipped)
    }

    #[test]
    fn ring_retains_in_order() {
        let mut rec = RingRecorder::new(16);
        for i in 0..3 {
            rec.record(skipped(i));
        }
        assert_eq!(rec.records(), [skipped(0), skipped(1), skipped(2)]);
        assert_eq!(rec.events_dropped(), 0);
    }

    #[test]
    fn eviction_drops_the_oldest_and_counts() {
        let mut rec = RingRecorder::new(2);
        for i in 0..5 {
            rec.record(skipped(i));
        }
        assert_eq!(rec.events_dropped(), 3);
        assert_eq!(rec.records(), [skipped(3), skipped(4)]);
    }

    #[test]
    fn drain_empties_the_ring_only() {
        let mut rec = RingRecorder::new(1);
        rec.record(skipped(0));
        rec.record(skipped(1));
        let drained = rec.drain_records();
        assert_eq!(drained, [skipped(1)]);
        assert!(rec.records().is_empty());
        assert_eq!(rec.events_dropped(), 1);
    }
}
