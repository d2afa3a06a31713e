//! The deterministic discrete-event scheduler: a logical clock and a
//! priority queue of timestamped events. No wall clock, no threads — each
//! event loop (the gossip fabric, the learning round) is a single loop
//! popping events in `(tick, sequence)` order, where the sequence number
//! is assigned at push time so same-tick events retain FIFO order. Two
//! runs that push the same events in the same order therefore pop them in
//! the same order, which is the foundation of the byte-identical replay
//! guarantee; [`Trace`] fingerprints what was popped.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// A node in the simulated fabric: parties are `0..n`, and the shared
/// policy repository is node `n` (see [`crate::sim`]).
pub type NodeId = usize;

/// What a fabric message carries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Payload {
    /// Gossip: "I have adopted coalition policy version `version`".
    /// Receivers behind that version refresh up to it (the policy set is
    /// derivable from the version — the gossip carries the policy).
    Advertise {
        /// The sender's adopted version.
        version: u64,
    },
    /// A refresh request to the shared repository.
    RefreshReq,
    /// The repository's reply: the current head version.
    RefreshAck {
        /// The repository head at reply time.
        version: u64,
    },
}

/// One in-flight fabric message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Message {
    /// Unique, deterministic message id (send order).
    pub id: u64,
    /// Sending node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// The payload.
    pub payload: Payload,
}

/// Everything that can happen in the gossip fabric, scheduled on the
/// logical clock.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// The shared repository publishes the next coalition policy version
    /// (a context shift) and pushes it to a few seed parties.
    PublishVersion,
    /// Every party refreshes against the repository at once (the paper's
    /// mass re-ground after a context shift).
    MassRefresh,
    /// A party runs one gossip round. Periodic rounds reschedule
    /// themselves; rumor-triggered rounds (after an adoption) fire once.
    Gossip {
        /// The gossiping party.
        party: NodeId,
        /// Whether this round reschedules itself.
        periodic: bool,
    },
    /// A party's periodic anti-entropy refresh against the repository.
    RefreshTick {
        /// The refreshing party.
        party: NodeId,
    },
    /// A message arrives at its destination (chaos permitting).
    Deliver {
        /// The message being delivered.
        message: Message,
    },
    /// One tick's worth of decision traffic: a rotating slice of parties
    /// each serves a batch of requests through its `PdpHandle`.
    DecideWave,
    /// A scheduled partition begins.
    PartitionStart {
        /// Index into the chaos plan's partition list.
        idx: usize,
    },
    /// A scheduled partition heals.
    PartitionHeal {
        /// Index into the chaos plan's partition list.
        idx: usize,
    },
    /// A crash wave fires: its victims lose all state and go down.
    CrashWaveStart {
        /// Index into the chaos plan's crash-wave list.
        idx: usize,
    },
    /// A crash wave's victims restart (recovering, deny-by-default).
    CrashWaveRestart {
        /// Index into the chaos plan's crash-wave list.
        idx: usize,
    },
    /// A degraded-mode wave begins (refreshes start failing for victims).
    DegradedWaveStart {
        /// Index into the chaos plan's degraded-wave list.
        idx: usize,
    },
    /// A degraded-mode wave ends.
    DegradedWaveEnd {
        /// Index into the chaos plan's degraded-wave list.
        idx: usize,
    },
    /// Bounded-reconvergence check scheduled after a partition heal:
    /// every eligible party must have caught up to `floor` by now.
    ConvergenceCheck {
        /// The repository head at heal time.
        floor: u64,
        /// The tick the partition healed.
        heal_tick: u64,
    },
    /// End-of-run sweep: with chaos quiesced, every party must be up,
    /// recovered, and serving the head version.
    FinalCheck,
}

#[derive(Clone, Debug)]
struct Scheduled<E> {
    at: u64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Scheduled<E>) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Scheduled<E>) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Scheduled<E>) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (tick, seq)
        // pops first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// The event queue: a seeded simulation's only source of "time". Each
/// event loop schedules its own event type `E`.
#[derive(Debug)]
pub struct EventQueue<E = Event> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> EventQueue<E> {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at tick 0.
    pub fn new() -> EventQueue<E> {
        EventQueue::default()
    }

    /// Schedules `event` at tick `at`. Same-tick events pop in push order.
    pub fn push(&mut self, at: u64, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { at, seq, event });
    }

    /// Pops the earliest event as `(tick, event)`.
    pub fn pop(&mut self) -> Option<(u64, E)> {
        self.heap.pop().map(|s| (s.at, s.event))
    }

    /// Events still scheduled.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// An event loop's replay fingerprint: an FNV-1a hash over the
/// `"{tick:06} {event:?}"` line of every event popped, in order, plus the
/// lines themselves when recording is on. Everything a loop does
/// downstream is a pure function of this sequence, so equal traces imply
/// equal runs.
#[derive(Debug)]
pub(crate) struct Trace {
    pub(crate) hash: u64,
    pub(crate) lines: Option<Vec<String>>,
}

impl Trace {
    /// An empty trace that keeps its lines when `record` is set.
    pub(crate) fn new(record: bool) -> Trace {
        Trace {
            hash: FNV_OFFSET,
            lines: record.then(Vec::new),
        }
    }

    /// Folds one popped event into the hash (and the lines, when on).
    pub(crate) fn record(&mut self, tick: u64, event: &impl fmt::Debug) {
        let line = format!("{tick:06} {event:?}");
        for &b in line.as_bytes() {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(FNV_PRIME);
        }
        if let Some(lines) = &mut self.lines {
            lines.push(line);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_tick_then_fifo_order() {
        let mut q = EventQueue::new();
        q.push(5, Event::PublishVersion);
        q.push(3, Event::DecideWave);
        q.push(3, Event::MassRefresh);
        q.push(1, Event::FinalCheck);
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop(), Some((1, Event::FinalCheck)));
        // Same tick: FIFO by push order, deterministically.
        assert_eq!(q.pop(), Some((3, Event::DecideWave)));
        assert_eq!(q.pop(), Some((3, Event::MassRefresh)));
        assert_eq!(q.pop(), Some((5, Event::PublishVersion)));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn identical_push_sequences_pop_identically() {
        let build = || {
            let mut q = EventQueue::new();
            for i in 0..200u64 {
                q.push(
                    i % 7,
                    Event::Gossip {
                        party: i as usize,
                        periodic: i % 2 == 0,
                    },
                );
            }
            q
        };
        let (mut a, mut b) = (build(), build());
        while let Some(x) = a.pop() {
            assert_eq!(Some(x), b.pop());
        }
        assert!(b.pop().is_none());
    }
}
