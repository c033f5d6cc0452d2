//! Fault schedules: seeded generation over the one fault vocabulary
//! ([`Fault`], fired by [`cluster::Nemesis`]).

use crate::NodeId;
pub use cluster::nemesis::{Fault, HEAL};
use omnipaxos::StorageFaultKind;
use simulator::Rng;
use std::collections::BTreeSet;

/// A fault bound to the simulation tick at which it fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledFault {
    pub at_tick: u64,
    pub fault: Fault,
}

fn pair(rng: &mut Rng, n: u64) -> (NodeId, NodeId) {
    let a = rng.range_inclusive(1, n);
    let mut b = rng.range_inclusive(1, n - 1);
    if b >= a {
        b += 1;
    }
    (a, b)
}

fn disk_kind(rng: &mut Rng) -> StorageFaultKind {
    match rng.below(5) {
        0 => StorageFaultKind::SyncFailed,
        1 => StorageFaultKind::ShortWrite,
        2 => StorageFaultKind::NoSpace,
        3 => StorageFaultKind::Corruption,
        _ => StorageFaultKind::CheckpointCrash,
    }
}

/// Generate a schedule of `events` faults over `[warmup, horizon)` ticks
/// for an `n`-server cluster. With `disk`, a third of the events are disk
/// faults ([`Fault::DiskFault`]/[`Fault::DiskFaultLeader`]) on top of the
/// full network/crash vocabulary, from a separate seed stream so every
/// plain schedule the regression seeds pin down stays byte-identical.
/// Same arguments ⇒ same schedule.
pub fn generate(
    seed: u64,
    n: usize,
    events: usize,
    horizon_ticks: u64,
    disk: bool,
) -> Vec<ScheduledFault> {
    let xor = if disk { 0xD15C_FA17 } else { 0xC4A0_5EED };
    let mut rng = Rng::seed_from_u64(seed ^ xor);
    let n = n as u64;
    let warmup = (horizon_ticks / 10).max(1);
    let mut out: Vec<ScheduledFault> = (0..events)
        .map(|_| {
            let at_tick = rng.range_inclusive(warmup, horizon_ticks.saturating_sub(1));
            let roll = if disk { rng.below(27) } else { rng.below(18) };
            let fault = match roll {
                0..=2 => {
                    let (a, b) = pair(&mut rng, n);
                    Fault::CutLink(a, b)
                }
                3 | 4 => {
                    let (a, b) = pair(&mut rng, n);
                    Fault::HealLink(a, b)
                }
                5 => {
                    let (a, b) = pair(&mut rng, n);
                    Fault::SessionDrop(a, b)
                }
                6 => Fault::QuorumLoss,
                7 => Fault::ConstrainedStage1,
                8 => Fault::ConstrainedStage2,
                9 => Fault::ChainedLine,
                10 => Fault::HealAll,
                11 => Fault::Crash(rng.range_inclusive(1, n)),
                12 => Fault::CrashLeader,
                13 => Fault::Recover(rng.range_inclusive(1, n)),
                14 => Fault::RecoverAll,
                15 => Fault::DelaySpike(rng.range_inclusive(300, 2_500)),
                16 => Fault::DelayCalm,
                17 => {
                    if rng.chance(0.5) {
                        Fault::Compact(rng.range_inclusive(1, n))
                    } else {
                        Fault::Reconfigure
                    }
                }
                // Disk-profile extension: a third of the events attack
                // storage. Anyone may be hit; the leader is singled out
                // often enough that "the quorum's pivot stops persisting"
                // is a common shape, and extra Recover events keep halted
                // servers cycling back in mid-schedule.
                18..=21 => Fault::DiskFault(rng.range_inclusive(1, n), disk_kind(&mut rng)),
                22 | 23 => Fault::DiskFaultLeader(disk_kind(&mut rng)),
                24 | 25 => Fault::Recover(rng.range_inclusive(1, n)),
                26 => Fault::RecoverAll,
                _ => unreachable!(),
            };
            ScheduledFault { at_tick, fault }
        })
        .collect();
    out.sort_by_key(|f| f.at_tick);
    out
}

/// The kv workloads' fault mix over `voters` servers: each of `ticks`
/// ticks draws a fault with probability 1 % — a link cut to the next
/// pid, a heal of the newest cut, a crash, and a recovery of a crashed
/// server (else, with `compact`, a compaction), plus with `disk` a disk
/// fault at a live server. Which shard a compaction or disk fault hits
/// is resolved when it fires. Same arguments ⇒ same schedule.
pub fn generate_kv(
    seed: u64,
    voters: usize,
    ticks: u64,
    compact: bool,
    disk: bool,
) -> Vec<ScheduledFault> {
    let mut rng = Rng::seed_from_u64(seed ^ 0x4B56_FA17);
    let n = voters as u64;
    let mut cut: Vec<(NodeId, NodeId)> = Vec::new();
    let mut down: BTreeSet<NodeId> = BTreeSet::new();
    let mut out = Vec::new();
    for at_tick in 1..=ticks {
        if !rng.chance(0.01) {
            continue;
        }
        let a = rng.range_inclusive(1, n);
        let b = 1 + a % n;
        let fault = match rng.below(if disk { 5 } else { 4 }) {
            0 => {
                cut.push((a, b));
                Some(Fault::CutLink(a, b))
            }
            1 => cut.pop().map(|(x, y)| Fault::HealLink(x, y)),
            2 => {
                down.insert(a);
                Some(Fault::Crash(a))
            }
            3 if down.remove(&a) => Some(Fault::Recover(a)),
            3 => compact.then_some(Fault::Compact(a)),
            _ => (!down.contains(&a)).then(|| Fault::DiskFault(a, disk_kind(&mut rng))),
        };
        out.extend(fault.map(|fault| ScheduledFault { at_tick, fault }));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        assert_eq!(
            generate(7, 5, 20, 1000, false),
            generate(7, 5, 20, 1000, false)
        );
        assert_ne!(
            generate(7, 5, 20, 1000, false),
            generate(8, 5, 20, 1000, false)
        );
    }

    #[test]
    fn disk_profile_is_deterministic_and_contains_disk_faults() {
        assert_eq!(
            generate(7, 5, 40, 1000, true),
            generate(7, 5, 40, 1000, true)
        );
        let hits = generate(7, 5, 40, 1000, true)
            .iter()
            .filter(|f| matches!(f.fault, Fault::DiskFault(_, _) | Fault::DiskFaultLeader(_)))
            .count();
        assert!(hits > 0, "40 disk-profile events must include disk faults");
    }

    #[test]
    fn plain_profile_is_unchanged_by_the_disk_extension() {
        // Pinned: the regression seeds in the chaos tests replay these
        // schedules; the disk profile must not perturb them.
        for f in generate(7, 5, 200, 1000, false) {
            assert!(
                !matches!(f.fault, Fault::DiskFault(_, _) | Fault::DiskFaultLeader(_)),
                "plain generate() emitted a disk fault"
            );
        }
    }

    #[test]
    fn pairs_are_distinct_and_in_range() {
        for s in 0..32 {
            for f in generate(s, 3, 30, 500, false) {
                match f.fault {
                    Fault::CutLink(a, b) | Fault::HealLink(a, b) | Fault::SessionDrop(a, b) => {
                        assert_ne!(a, b);
                        assert!((1..=3).contains(&a) && (1..=3).contains(&b));
                    }
                    _ => {}
                }
                assert!(f.at_tick < 500);
            }
        }
    }
}
