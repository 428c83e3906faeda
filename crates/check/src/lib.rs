//! The test oracles more than one suite checks a run against. None knows
//! an engine: a suite drives its own and hands them plain values. Every
//! user lists this crate under `[dev-dependencies]` only; their seeds draw
//! from `ermia_common::rng::SplitMix64`.

pub mod history;
pub mod journal;
