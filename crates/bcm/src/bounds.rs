//! Transmission-time bounds `L, U : Chans -> N` with `1 <= L_ij <= U_ij < ∞`
//! (paper §2.1), and their extension to network paths.

use std::collections::BTreeMap;

use crate::error::BcmError;
use crate::net::Channel;
use crate::path::NetPath;
use crate::time::Time;

/// The `[L_ij, U_ij]` bounds of a single channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChannelBounds {
    lower: u64,
    upper: u64,
}

impl ChannelBounds {
    /// Creates bounds; callers are expected to have validated
    /// `1 <= lower <= upper` (the [`crate::NetworkBuilder`] does).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `lower == 0` or `lower > upper`.
    pub fn new(lower: u64, upper: u64) -> Self {
        debug_assert!(lower >= 1 && lower <= upper);
        ChannelBounds { lower, upper }
    }

    /// Minimum transmission time `L_ij`.
    pub const fn lower(self) -> u64 {
        self.lower
    }

    /// Maximum transmission time `U_ij`.
    pub const fn upper(self) -> u64 {
        self.upper
    }

    /// The slack `U_ij - L_ij` of the channel.
    pub const fn slack(self) -> u64 {
        self.upper - self.lower
    }

    /// Whether `delay` is a legal transmission time for this channel.
    pub const fn permits(self, delay: u64) -> bool {
        self.lower <= delay && delay <= self.upper
    }

    /// Checks that a message on `ch`, the channel these bounds govern,
    /// sent at `sent_at` may arrive at `at`: strictly after the send,
    /// within `[L_ij, U_ij]` ticks of it. Fails with
    /// [`BcmError::DeliveryOutOfBounds`] otherwise.
    pub(crate) fn check_arrival(
        self,
        ch: Channel,
        sent_at: Time,
        at: Time,
    ) -> Result<(), BcmError> {
        if at > sent_at && self.permits(at.ticks() - sent_at.ticks()) {
            return Ok(());
        }
        Err(BcmError::DeliveryOutOfBounds {
            from: ch.from,
            to: ch.to,
            sent_at,
            delivered_at: at,
        })
    }
}

/// The bound functions `L, U` for a whole network.
///
/// # Examples
///
/// ```
/// use zigzag_bcm::{Bounds, Channel, ProcessId};
/// use zigzag_bcm::bounds::ChannelBounds;
/// let mut bounds = Bounds::new();
/// let ch = Channel::new(ProcessId::new(0), ProcessId::new(1));
/// bounds.insert(ch, ChannelBounds::new(2, 5));
/// assert_eq!(bounds.lower(ch), Some(2));
/// assert_eq!(bounds.upper(ch), Some(5));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bounds {
    map: BTreeMap<Channel, ChannelBounds>,
}

impl Bounds {
    /// Creates an empty bounds table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of channels covered.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no channel is covered.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Sets the bounds of `channel`, replacing any previous entry.
    pub fn insert(&mut self, channel: Channel, bounds: ChannelBounds) {
        self.map.insert(channel, bounds);
    }

    /// The bounds of `channel`, if covered.
    pub fn get(&self, channel: Channel) -> Option<ChannelBounds> {
        self.map.get(&channel).copied()
    }

    /// Lower bound `L_ij` of `channel`.
    pub fn lower(&self, channel: Channel) -> Option<u64> {
        self.get(channel).map(ChannelBounds::lower)
    }

    /// Upper bound `U_ij` of `channel`.
    pub fn upper(&self, channel: Channel) -> Option<u64> {
        self.get(channel).map(ChannelBounds::upper)
    }

    /// Sum of lower bounds `L(p)` along a path (paper §2.1).
    ///
    /// A singleton path has `L(p) = 0`.
    ///
    /// # Errors
    ///
    /// Returns [`BcmError::MissingChannel`] if a hop is not covered.
    pub fn path_lower(&self, path: &NetPath) -> Result<u64, BcmError> {
        self.sum_path(path, ChannelBounds::lower)
    }

    /// Sum of upper bounds `U(p)` along a path (paper §2.1).
    ///
    /// A singleton path has `U(p) = 0`.
    ///
    /// # Errors
    ///
    /// Returns [`BcmError::MissingChannel`] if a hop is not covered.
    pub fn path_upper(&self, path: &NetPath) -> Result<u64, BcmError> {
        self.sum_path(path, ChannelBounds::upper)
    }

    fn sum_path(&self, path: &NetPath, f: impl Fn(ChannelBounds) -> u64) -> Result<u64, BcmError> {
        let mut total = 0u64;
        for hop in path.hops() {
            let b = self.get(hop).ok_or(BcmError::MissingChannel {
                from: hop.from,
                to: hop.to,
            })?;
            total += f(b);
        }
        Ok(total)
    }

    /// The largest upper bound over all covered channels (0 if empty).
    pub fn max_upper(&self) -> u64 {
        self.map.values().map(|b| b.upper()).max().unwrap_or(0)
    }

    /// Iterator over `(channel, bounds)` pairs in channel order.
    pub fn iter(&self) -> impl Iterator<Item = (Channel, ChannelBounds)> + '_ {
        self.map.iter().map(|(c, b)| (*c, *b))
    }

    /// Flattens the bounds into a dense `from * n + to` table (`None`
    /// where no channel exists), `n` being the process count. Append-path
    /// consumers that resolve bounds per delivered message probe this
    /// instead of the ordered map.
    pub fn dense_table(&self, n: usize) -> Vec<Option<(u64, u64)>> {
        let mut table = vec![None; n * n];
        for (c, b) in self.iter() {
            table[c.from.index() * n + c.to.index()] = Some((b.lower(), b.upper()));
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::ProcessId;

    fn ch(a: u32, b: u32) -> Channel {
        Channel::new(ProcessId::new(a), ProcessId::new(b))
    }

    #[test]
    fn channel_bounds_basics() {
        let b = ChannelBounds::new(2, 5);
        assert_eq!(b.lower(), 2);
        assert_eq!(b.upper(), 5);
        assert_eq!(b.slack(), 3);
        assert!(b.permits(2) && b.permits(5));
        assert!(!b.permits(1) && !b.permits(6));
    }

    #[test]
    fn path_sums() {
        let mut bounds = Bounds::new();
        bounds.insert(ch(0, 1), ChannelBounds::new(2, 5));
        bounds.insert(ch(1, 2), ChannelBounds::new(3, 7));
        let p = NetPath::new(vec![
            ProcessId::new(0),
            ProcessId::new(1),
            ProcessId::new(2),
        ])
        .unwrap();
        assert_eq!(bounds.path_lower(&p).unwrap(), 5);
        assert_eq!(bounds.path_upper(&p).unwrap(), 12);
        let singleton = NetPath::singleton(ProcessId::new(0));
        assert_eq!(bounds.path_lower(&singleton).unwrap(), 0);
        assert_eq!(bounds.path_upper(&singleton).unwrap(), 0);
    }

    #[test]
    fn missing_channel_is_an_error() {
        let bounds = Bounds::new();
        let p = NetPath::new(vec![ProcessId::new(0), ProcessId::new(1)]).unwrap();
        assert!(matches!(
            bounds.path_lower(&p),
            Err(BcmError::MissingChannel { .. })
        ));
    }

    #[test]
    fn max_upper_over_channels() {
        let mut bounds = Bounds::new();
        assert_eq!(bounds.max_upper(), 0);
        bounds.insert(ch(0, 1), ChannelBounds::new(1, 9));
        bounds.insert(ch(1, 0), ChannelBounds::new(1, 4));
        assert_eq!(bounds.max_upper(), 9);
        assert_eq!(bounds.iter().count(), 2);
        assert_eq!(bounds.len(), 2);
        assert!(!bounds.is_empty());
    }
}
