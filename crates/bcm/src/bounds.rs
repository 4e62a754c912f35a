//! Transmission-time bounds `L, U : Chans -> N` with `1 <= L_ij <= U_ij < ∞`
//! (paper §2.1), and their extension to network paths. A context caps
//! every bound at [`MAX_BOUND`] ticks.
//!
//! [`Bounds`] is the one home of `L, U`: a dense `from × to` table that
//! the append checks, the bounds graphs and the run constructions all
//! read, each lookup one range-checked load. Per-process channel lists
//! come from the network's sorted adjacency
//! ([`crate::Network::out_neighbors`], [`crate::Network::in_neighbors`]).

use std::fmt;

use crate::error::BcmError;
use crate::net::{Channel, ProcessId};
use crate::path::NetPath;
use crate::time::Time;

/// The largest bound a channel may declare, in ticks: `2³¹`. Below it,
/// every path of a bounds graph with fewer than `2³²` vertices weighs
/// strictly between `i64::MIN` and `i64::MAX`, so bounds convert to edge
/// weights, and sum along paths, without overflow.
/// [`crate::NetworkBuilder::add_channel`] and [`crate::Context::new`]
/// refuse larger bounds.
pub const MAX_BOUND: u64 = 1 << 31;

/// The `[L_ij, U_ij]` bounds of a single channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChannelBounds {
    lower: u64,
    upper: u64,
}

impl ChannelBounds {
    /// Creates bounds; callers are expected to have validated
    /// `1 <= lower <= upper <= MAX_BOUND` (the [`crate::NetworkBuilder`]
    /// and [`crate::Context::new`] do).
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

/// The bound functions `L, U` for a whole network: a dense `from × to`
/// table, so looking a channel up is one range-checked load.
///
/// The table is square, with a row and a column for every process up to
/// the highest endpoint inserted (or for every process of the network it
/// was built for), so it holds `side²` cells. A lookup with an endpoint
/// outside the table finds no channel, never another channel's cell. Two
/// tables are equal when they cover the same channels with the same
/// bounds, whatever their sides.
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
/// assert_eq!(bounds.get(Channel::new(ProcessId::new(1), ProcessId::new(2))), None);
/// ```
#[derive(Clone, Default)]
pub struct Bounds {
    /// Rows (and columns) of the table.
    side: usize,
    /// The bounds of channel `(from, to)` at `from * side + to`.
    cells: Vec<Option<ChannelBounds>>,
    /// Number of covered channels.
    len: usize,
}

impl Bounds {
    /// Creates an empty bounds table.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty table with a row and a column for each of `n` processes.
    pub(crate) fn with_processes(n: usize) -> Self {
        let cells = n
            .checked_mul(n)
            .expect("a bounds table of n² cells fits usize");
        Bounds {
            side: n,
            cells: vec![None; cells],
            len: 0,
        }
    }

    /// Number of channels covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no channel is covered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets the bounds of `channel`, replacing any previous entry. The
    /// table grows to cover both endpoints.
    ///
    /// # Panics
    ///
    /// Panics if the grown table's `side²` cells overflow `usize`.
    pub fn insert(&mut self, channel: Channel, bounds: ChannelBounds) {
        let side = channel.from.index().max(channel.to.index()) + 1;
        if side > self.side {
            let old = std::mem::replace(self, Bounds::with_processes(side));
            for (c, b) in old.iter() {
                self.insert(c, b);
            }
        }
        let cell = &mut self.cells[channel.from.index() * self.side + channel.to.index()];
        if cell.replace(bounds).is_none() {
            self.len += 1;
        }
    }

    /// The bounds of `channel`, if covered.
    #[inline]
    pub fn get(&self, channel: Channel) -> Option<ChannelBounds> {
        let (from, to) = (channel.from.index(), channel.to.index());
        if from < self.side && to < self.side {
            self.cells[from * self.side + to]
        } else {
            None
        }
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
        self.iter().map(|(_, b)| b.upper()).max().unwrap_or(0)
    }

    /// Iterator over `(channel, bounds)` pairs in channel order.
    pub fn iter(&self) -> impl Iterator<Item = (Channel, ChannelBounds)> + '_ {
        let side = self.side;
        self.cells.iter().enumerate().filter_map(move |(i, cell)| {
            let (from, to) = ((i / side) as u32, (i % side) as u32);
            cell.map(|b| (Channel::new(ProcessId::new(from), ProcessId::new(to)), b))
        })
    }
}

impl PartialEq for Bounds {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl Eq for Bounds {}

impl fmt::Debug for Bounds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
