//! The dense bounds table against an ordered-map reference: every lookup,
//! iteration order, path sum and equality agrees with a
//! `BTreeMap<Channel, ChannelBounds>` holding the same channels, on
//! random networks with isolated processes and with a highest-numbered
//! process that has no channel, whatever order the channels arrive in.

use std::collections::BTreeMap;

use proptest::prelude::*;
use zigzag_bcm::bounds::ChannelBounds;
use zigzag_bcm::{BcmError, Bounds, Channel, NetPath, Network, ProcessId};

/// A random network of `n` processes: each ordered pair `(from, to)`
/// draws whether it is a channel (one in three), its bounds, and a key
/// ordering the channels' insertion. `last_bare` strips every channel
/// of the highest-numbered process.
fn networks() -> impl Strategy<Value = (u32, Vec<(Channel, ChannelBounds, u64)>)> {
    let pairs = collection::vec((0u8..3, 1u64..6, 0u64..5, any::<u64>()), 64);
    (2u32..9, pairs, any::<bool>()).prop_map(|(n, draws, last_bare)| {
        let mut chans = Vec::new();
        for from in 0..n {
            for to in 0..n {
                let (keep, lower, slack, key) = draws[(from * 8 + to) as usize];
                let bare = last_bare && (from == n - 1 || to == n - 1);
                if from != to && keep == 0 && !bare {
                    let ch = Channel::new(ProcessId::new(from), ProcessId::new(to));
                    chans.push((ch, ChannelBounds::new(lower, lower + slack), key));
                }
            }
        }
        (n, chans)
    })
}

fn process(p: u32) -> ProcessId {
    ProcessId::new(p)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn bounds_agree_with_an_ordered_map((n, mut chans) in networks()) {
        let reference: BTreeMap<Channel, ChannelBounds> =
            chans.iter().map(|&(c, b, _)| (c, b)).collect();
        let in_order = {
            let mut bounds = Bounds::new();
            for &(c, b, _) in &chans {
                bounds.insert(c, b);
            }
            bounds
        };
        chans.sort_by_key(|&(_, _, key)| key);
        let mut shuffled = Bounds::new();
        for &(c, b, _) in &chans {
            shuffled.insert(c, b);
        }
        let mut nb = Network::builder();
        nb.add_processes(n as usize);
        for &(c, b, _) in &chans {
            nb.add_channel(c.from, c.to, b.lower(), b.upper()).unwrap();
        }
        let ctx = nb.build().unwrap();

        for bounds in [&shuffled, &in_order, ctx.bounds()] {
            prop_assert_eq!(bounds, &shuffled);
            prop_assert_eq!(bounds.len(), reference.len());
            prop_assert_eq!(bounds.is_empty(), reference.is_empty());
            let listed: Vec<_> = bounds.iter().collect();
            let want: Vec<_> = reference.iter().map(|(&c, &b)| (c, b)).collect();
            prop_assert_eq!(listed, want);
            let max_upper = reference.values().map(|b| b.upper()).max().unwrap_or(0);
            prop_assert_eq!(bounds.max_upper(), max_upper);
            for from in 0..n + 3 {
                for to in 0..n + 3 {
                    let c = Channel::new(process(from), process(to));
                    let want = reference.get(&c).copied();
                    prop_assert_eq!(bounds.get(c), want);
                    prop_assert_eq!(bounds.lower(c), want.map(ChannelBounds::lower));
                    prop_assert_eq!(bounds.upper(c), want.map(ChannelBounds::upper));
                    prop_assert_eq!(ctx.channel_bounds(c.from, c.to), want);
                }
            }
            // Two-hop paths, through processes inside and outside the
            // network: each sums its hops or names the first missing one.
            for (a, b, c) in [(0, 1, 0), (n - 1, 0, 1), (0, n - 1, n), (1, n + 2, 0)] {
                let path = NetPath::new(vec![process(a), process(b), process(c)]).unwrap();
                let hops: Vec<Channel> = path.hops().collect();
                let missing = hops.iter().find(|h| !reference.contains_key(h));
                match missing {
                    Some(h) => {
                        let err = BcmError::MissingChannel { from: h.from, to: h.to };
                        prop_assert_eq!(bounds.path_lower(&path), Err(err.clone()));
                        prop_assert_eq!(bounds.path_upper(&path), Err(err));
                    }
                    None => {
                        let sum = |f: fn(ChannelBounds) -> u64| -> u64 {
                            hops.iter().map(|h| f(reference[h])).sum()
                        };
                        prop_assert_eq!(bounds.path_lower(&path), Ok(sum(ChannelBounds::lower)));
                        prop_assert_eq!(bounds.path_upper(&path), Ok(sum(ChannelBounds::upper)));
                    }
                }
            }
        }
        // A table that covers one more channel is a different table.
        if let Some(&(c, b, _)) = chans.first() {
            let mut fewer = Bounds::new();
            for &(c2, b2, _) in &chans[1..] {
                fewer.insert(c2, b2);
            }
            prop_assert!(fewer != shuffled);
            fewer.insert(c, b);
            prop_assert_eq!(&fewer, &shuffled);
            fewer.insert(c, ChannelBounds::new(b.lower(), b.upper() + 1));
            prop_assert!(fewer != shuffled);
            prop_assert_eq!(fewer.len(), shuffled.len());
        }
    }
}
