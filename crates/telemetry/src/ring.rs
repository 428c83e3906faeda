//! The one ring under the tracer: a fixed, power-of-two array of
//! `W`-word slots with a single writer, any number of concurrent readers,
//! and no lock, allocation or wait on either side.
//!
//! ## Slot protocol (per-slot seqlock)
//!
//! A slot is `{seq, words[W]}`. The writer stores `seq = 0`, issues a
//! release fence, writes the payload words (relaxed), then stores
//! `seq = pos + 1` (release). A reader loads `seq` (acquire), skips the
//! slot if it is 0, reads the payload (relaxed), issues an acquire fence,
//! then re-loads `seq`; the slot is taken only if both loads agree.
//!
//! Why the two fences. A release *store* orders only what comes before
//! it, so `seq = 0` alone would let the new payload words become visible
//! ahead of it; and an acquire *load* orders only what comes after it, so
//! the re-load alone would let the payload loads drift past it. With the
//! fences: if a reader's payload load saw a word of a newer write, the
//! writer's fence makes its `seq = 0` visible to every load after the
//! reader's fence, so the re-load reads 0 or a later position, never the
//! first load's value — the torn slot is dropped. If the first load saw
//! `pos + 1`, its acquire makes that write's words visible. (x86-TSO
//! never reorders stores with stores or loads with loads, so the fences
//! cost nothing there; weaker machines need them.)
//!
//! Two *writers* can only collide on one slot if one of them stalls for a
//! full ring lap inside the ~20ns write section; with ≥256 slots this is
//! astronomically unlikely, and the worst case is one garbled (not unsafe)
//! slot — an accepted trade for a zero-coordination hot path.

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The taxonomy of records, stated once: each row `code Variant:
/// "label" (a, b);` is a variant, the stable code word a slot stores for
/// it, the label dumps print, and the names a dump line gives the
/// record's `a` and `b` words (`_` for a word the kind leaves 0).
/// Generates the enum, `ALL` (every kind, in row order), `code`/
/// `from_code`, `label`/`from_label` and `fields`.
macro_rules! kinds {
    ($(#[$meta:meta])* $vis:vis enum $name:ident {
        $($(#[$vmeta:meta])* $code:literal $variant:ident: $label:literal ($a:tt, $b:tt);)*
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

            /// What a dump line calls this kind's `a` and `b` words; `_`
            /// for a word it leaves 0, which the line omits.
            pub fn fields(self) -> (&'static str, &'static str) {
                match self {
                    $($name::$variant => (stringify!($a), stringify!($b)),)*
                }
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
    mask: usize,
    pos: AtomicU64,
    slots: Box<[Slot<W>]>,
}

impl<const W: usize> SeqRing<W> {
    pub fn new(cap: usize) -> SeqRing<W> {
        let cap = cap.next_power_of_two().max(8);
        let slot =
            |_| Slot { seq: AtomicU64::new(0), words: std::array::from_fn(|_| AtomicU64::new(0)) };
        SeqRing { mask: cap - 1, pos: AtomicU64::new(0), slots: (0..cap).map(slot).collect() }
    }

    #[cfg(test)]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// What the slots take.
    #[cfg(test)]
    pub fn bytes(&self) -> usize {
        std::mem::size_of_val(&*self.slots)
    }

    /// Append a slot. Allocation-free, lock-free, wait-free.
    #[inline]
    pub fn push(&self, words: [u64; W]) {
        let pos = self.pos.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[pos as usize & self.mask];
        slot.seq.store(0, Ordering::Relaxed);
        fence(Ordering::Release);
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
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != s1 {
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

    #[cfg(test)]
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
    use crate::SpanKind;

    /// The generated table: codes and labels are distinct, dense from 1,
    /// each maps back to the kind it came from, and no field name shadows
    /// a word every line has or the other field.
    #[test]
    fn every_kind_round_trips() {
        for (i, &k) in SpanKind::ALL.iter().enumerate() {
            assert_eq!(k.code() as usize, i + 1, "{k:?}");
            assert_eq!(SpanKind::from_code(k.code()), Some(k));
            assert_eq!(SpanKind::from_label(k.label()), Some(k));
            let (a, b) = k.fields();
            for name in [a, b] {
                let fixed = ["trace", "id", "parent", "kind", "start", "dur", "shard"];
                assert!(!fixed.contains(&name), "{k:?} names a field {name}");
            }
            assert!(a != b || a == "_", "{k:?} names both fields {a}");
        }
        assert_eq!(SpanKind::from_code(0), None);
        assert_eq!(SpanKind::from_code(SpanKind::ALL.len() as u32 + 1), None);
        assert_eq!(SpanKind::from_label("no-such-kind"), None);
    }

    fn drain<const W: usize>(ring: &SeqRing<W>) -> Vec<[u64; W]> {
        let mut out = Vec::new();
        ring.snapshot(|words| out.push(words));
        out
    }

    #[test]
    fn wraparound_keeps_the_most_recent_lap() {
        let ring = SeqRing::<2>::new(16);
        let cap = ring.capacity() as u64;
        for i in 0..cap * 3 {
            ring.push([i, i * 7]);
        }
        let mut out = drain(&ring);
        assert_eq!(out.len(), cap as usize, "full ring after 3 laps");
        out.sort_unstable();
        let firsts: Vec<u64> = out.iter().map(|w| w[0]).collect();
        assert_eq!(firsts, (cap * 2..cap * 3).collect::<Vec<_>>(), "only the last lap survives");
        assert!(out.iter().all(|w| w[1] == w[0] * 7), "no slot mixes two writes");
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
        let writers: Vec<_> = (0..4u64)
            .map(|w| {
                let set = Arc::clone(&set);
                std::thread::spawn(move || {
                    let ring = set.register(SeqRing::new(64));
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
