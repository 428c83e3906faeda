//! The one ring under the flight recorder and the tracer: a fixed,
//! power-of-two array of `W`-word slots with a single writer, any number
//! of concurrent readers, and no lock, allocation or wait on either side.
//!
//! ## Slot protocol (per-slot seqlock)
//!
//! A slot is `{seq, words[W]}`. The writer stores `seq = 0` (release),
//! writes the payload words (relaxed), then stores `seq = pos + 1`
//! (release). A reader loads `seq` (acquire), skips the slot if it is 0,
//! reads the payload, then re-loads `seq`; the slot is taken only if both
//! loads agree. A writer lapping a reader therefore can't hand out a
//! half-written slot: the leading `seq = 0` store is release-ordered
//! after the previous payload and the reader's second load catches any
//! overlap. Two *writers* can only collide on one slot if one of them
//! stalls for a full ring lap inside the ~20ns write section; with ≥256
//! slots this is astronomically unlikely, and the worst case is one
//! garbled (not unsafe) slot — an accepted trade for a zero-coordination
//! hot path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A taxonomy of ring entries, stated once: each row `code Variant:
/// "label";` is a variant, the stable code word a slot stores for it and
/// the label dumps print. Generates the enum, `ALL` (every kind, in row
/// order), `code`/`from_code` and `label`/`from_label`.
macro_rules! kinds {
    ($(#[$meta:meta])* $vis:vis enum $name:ident {
        $($(#[$vmeta:meta])* $code:literal $variant:ident: $label:literal;)*
    }) => {
        $(#[$meta])*
        #[derive(Clone, Copy, PartialEq, Eq, Debug)]
        $vis enum $name {
            $($(#[$vmeta])* $variant,)*
        }

        impl $name {
            /// Every kind, in code order.
            pub const ALL: &'static [$name] = &[$($name::$variant,)*];

            pub(crate) fn code(self) -> u32 {
                match self {
                    $($name::$variant => $code,)*
                }
            }

            pub(crate) fn from_code(c: u32) -> Option<$name> {
                match c {
                    $($code => Some($name::$variant),)*
                    _ => None,
                }
            }

            pub fn label(self) -> &'static str {
                match self {
                    $($name::$variant => $label,)*
                }
            }

            pub fn from_label(s: &str) -> Option<$name> {
                $name::ALL.iter().copied().find(|k| k.label() == s)
            }
        }
    };
}
pub(crate) use kinds;

struct Slot<const W: usize> {
    /// 0 = empty/being written, else position + 1.
    seq: AtomicU64,
    words: [AtomicU64; W],
}

/// One writer's ring of `W`-word slots. Safe for concurrent readers;
/// intended for a single writer (see the slot-protocol note above for why
/// a second writer is tolerated but not encouraged).
pub(crate) struct SeqRing<const W: usize> {
    epoch: Instant,
    mask: usize,
    pos: AtomicU64,
    slots: Box<[Slot<W>]>,
}

impl<const W: usize> SeqRing<W> {
    pub fn new(epoch: Instant, cap: usize) -> SeqRing<W> {
        let cap = cap.next_power_of_two().max(8);
        let slot =
            |_| Slot { seq: AtomicU64::new(0), words: std::array::from_fn(|_| AtomicU64::new(0)) };
        SeqRing {
            epoch,
            mask: cap - 1,
            pos: AtomicU64::new(0),
            slots: (0..cap).map(slot).collect(),
        }
    }

    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Nanoseconds since the epoch every ring of one owner shares, so
    /// slots from different threads land on one comparable timeline.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Slots written so far (monotonic, may exceed capacity).
    pub fn written(&self) -> u64 {
        self.pos.load(Ordering::Relaxed)
    }

    /// Append a slot. Allocation-free, lock-free, wait-free.
    #[inline]
    pub fn push(&self, words: [u64; W]) {
        let pos = self.pos.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[pos as usize & self.mask];
        slot.seq.store(0, Ordering::Release);
        for (cell, word) in slot.words.iter().zip(words) {
            cell.store(word, Ordering::Relaxed);
        }
        slot.seq.store(pos + 1, Ordering::Release);
    }

    /// Hand every currently-valid slot to `take`. Torn slots (mid-write)
    /// are skipped, never misread.
    pub fn snapshot(&self, mut take: impl FnMut([u64; W])) {
        for slot in self.slots.iter() {
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 == 0 {
                continue;
            }
            let words = std::array::from_fn(|i| slot.words[i].load(Ordering::Relaxed));
            if slot.seq.load(Ordering::Acquire) != s1 {
                continue; // raced a writer; drop the torn slot
            }
            take(words);
        }
    }
}

/// The rings one recorder merges on read: each writer registers its own
/// and retires it when it goes away.
pub(crate) struct RingSet<R> {
    rings: Mutex<Vec<Arc<R>>>,
}

impl<R> RingSet<R> {
    pub fn new() -> RingSet<R> {
        RingSet { rings: Mutex::new(Vec::new()) }
    }

    pub fn register(&self, ring: R) -> Arc<R> {
        let ring = Arc::new(ring);
        self.rings.lock().unwrap().push(Arc::clone(&ring));
        ring
    }

    /// Drop a ring from the set. What it recorded is no longer reachable:
    /// a dump is about *recent live* activity.
    pub fn retire(&self, ring: &Arc<R>) {
        self.rings.lock().unwrap().retain(|r| !Arc::ptr_eq(r, ring));
    }

    pub fn len(&self) -> usize {
        self.rings.lock().unwrap().len()
    }

    /// Visit every registered ring with its position in the set.
    pub fn for_each(&self, mut visit: impl FnMut(usize, &R)) {
        for (i, ring) in self.rings.lock().unwrap().iter().enumerate() {
            visit(i, ring);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EventKind, SpanKind};

    /// The generated tables: codes and labels are distinct, dense from 1,
    /// and each maps back to the kind it came from.
    #[test]
    fn every_kind_round_trips() {
        macro_rules! check {
            ($kind:ident) => {
                for (i, &k) in $kind::ALL.iter().enumerate() {
                    assert_eq!(k.code() as usize, i + 1, "{k:?}");
                    assert_eq!($kind::from_code(k.code()), Some(k));
                    assert_eq!($kind::from_label(k.label()), Some(k));
                }
                assert_eq!($kind::from_code(0), None);
                assert_eq!($kind::from_code($kind::ALL.len() as u32 + 1), None);
                assert_eq!($kind::from_label("no-such-kind"), None);
            };
        }
        check!(SpanKind);
        check!(EventKind);
        assert_eq!((SpanKind::ALL.len(), EventKind::ALL.len()), (15, 19));
    }

    fn drain<const W: usize>(ring: &SeqRing<W>) -> Vec<[u64; W]> {
        let mut out = Vec::new();
        ring.snapshot(|words| out.push(words));
        out
    }

    #[test]
    fn wraparound_keeps_the_most_recent_lap() {
        let ring = SeqRing::<2>::new(Instant::now(), 16);
        let cap = ring.capacity() as u64;
        for i in 0..cap * 3 {
            ring.push([i, ring.now_ns()]);
        }
        assert_eq!(ring.written(), cap * 3);
        let mut out = drain(&ring);
        assert_eq!(out.len(), cap as usize, "full ring after 3 laps");
        out.sort_unstable();
        let firsts: Vec<u64> = out.iter().map(|w| w[0]).collect();
        assert_eq!(firsts, (cap * 2..cap * 3).collect::<Vec<_>>(), "only the last lap survives");
        // One writer: clock order is write order.
        assert!(out.windows(2).all(|w| w[0][1] <= w[1][1]));
    }

    #[test]
    fn concurrent_writers_and_readers_never_see_torn_slots() {
        // Every word of a slot is a function of the first, so a slot
        // assembled from two writes is detectable; readers hammer
        // snapshots of every ring while the writers lap them.
        const MARK: u64 = 0xDEAD_BEEF_F11E_0000;
        let check = |[a, b, c, d]: [u64; 4]| {
            assert_eq!((b, c, d), (a ^ MARK, !a, a.rotate_left(17)), "words of two writes");
        };
        let set = Arc::new(RingSet::<SeqRing<4>>::new());
        let stop = Arc::new(AtomicU64::new(0));
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let (set, stop) = (Arc::clone(&set), Arc::clone(&stop));
                std::thread::spawn(move || {
                    let mut seen = 0u64;
                    // On two cores the writers can be done before a
                    // reader first runs: the full rings are still there.
                    while stop.load(Ordering::Relaxed) == 0 || seen == 0 {
                        set.for_each(|_, ring| {
                            ring.snapshot(|words| {
                                check(words);
                                seen += 1;
                            })
                        });
                    }
                    seen
                })
            })
            .collect();
        let epoch = Instant::now();
        let writers: Vec<_> = (0..4u64)
            .map(|w| {
                let set = Arc::clone(&set);
                std::thread::spawn(move || {
                    let ring = set.register(SeqRing::new(epoch, 64));
                    for i in 0..20_000u64 {
                        let a = w << 32 | i;
                        ring.push([a, a ^ MARK, !a, a.rotate_left(17)]);
                    }
                    ring
                })
            })
            .collect();
        let rings: Vec<_> = writers.into_iter().map(|h| h.join().unwrap()).collect();
        stop.store(1, Ordering::Relaxed);
        for r in readers {
            assert!(r.join().unwrap() > 0);
        }
        assert_eq!(set.len(), 4);
        for ring in &rings {
            let out = drain(ring);
            assert_eq!(out.len(), ring.capacity(), "ring is full");
            out.into_iter().for_each(check);
            set.retire(ring);
        }
        assert_eq!(set.len(), 0);
    }
}
