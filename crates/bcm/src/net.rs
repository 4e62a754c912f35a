//! The communication network `Net = (Procs, Chans)` and the bounded context
//! `γ = ((Net, L, U), G_0)` (paper §2.1).

use std::collections::BTreeMap;
use std::fmt;

use crate::bounds::{Bounds, ChannelBounds, MAX_BOUND};
use crate::error::BcmError;

/// Identifier of a process (`i ∈ Procs = {1, …, n}`, zero-based here).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ProcessId(u32);

impl ProcessId {
    /// Creates a process identifier from a zero-based index.
    #[inline]
    pub const fn new(index: u32) -> Self {
        ProcessId(index)
    }

    /// The zero-based index of this process.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A directed communication channel `(i, j) ∈ Chans`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Channel {
    /// Sending endpoint.
    pub from: ProcessId,
    /// Receiving endpoint.
    pub to: ProcessId,
}

impl Channel {
    /// Creates the channel `(from, to)`.
    #[inline]
    pub const fn new(from: ProcessId, to: ProcessId) -> Self {
        Channel { from, to }
    }

    /// The reversed channel `(to, from)` (which may or may not exist in a
    /// given network).
    #[inline]
    pub const fn reversed(self) -> Self {
        Channel {
            from: self.to,
            to: self.from,
        }
    }
}

impl fmt::Display for Channel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({} -> {})", self.from, self.to)
    }
}

/// The directed network graph `Net = (Procs, Chans)`.
///
/// Constructed through [`Network::builder`]. Immutable once built; the
/// simulator, causality layer and bounds graphs all borrow it.
///
/// # Examples
///
/// ```
/// use zigzag_bcm::Network;
/// # fn main() -> Result<(), zigzag_bcm::BcmError> {
/// let mut b = Network::builder();
/// let i = b.add_process("i");
/// let j = b.add_process("j");
/// b.add_channel(i, j, 1, 4)?;
/// let ctx = b.build()?;
/// assert!(ctx.network().has_channel(i, j));
/// assert!(!ctx.network().has_channel(j, i));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Network {
    names: Vec<String>,
    /// Outgoing adjacency, sorted for determinism.
    out_adj: Vec<Vec<ProcessId>>,
    /// Incoming adjacency, sorted for determinism.
    in_adj: Vec<Vec<ProcessId>>,
    channels: Vec<Channel>,
}

impl Network {
    /// Starts building a network.
    pub fn builder() -> NetworkBuilder {
        NetworkBuilder::new()
    }

    /// Number of processes `n = |Procs|`.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the network has no processes. Built networks are never empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterator over all process identifiers in index order.
    pub fn processes(&self) -> impl Iterator<Item = ProcessId> + '_ {
        (0..self.names.len() as u32).map(ProcessId::new)
    }

    /// Human-readable name of `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a process of this network.
    pub fn name(&self, p: ProcessId) -> &str {
        &self.names[p.index()]
    }

    /// Looks a process up by name.
    pub fn process_by_name(&self, name: &str) -> Option<ProcessId> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|i| ProcessId::new(i as u32))
    }

    /// Whether `p` is a process of this network.
    pub fn contains(&self, p: ProcessId) -> bool {
        p.index() < self.names.len()
    }

    /// Whether the channel `(from, to)` exists.
    pub fn has_channel(&self, from: ProcessId, to: ProcessId) -> bool {
        self.contains(from) && self.out_adj[from.index()].binary_search(&to).is_ok()
    }

    /// Out-neighbors of `p` (receivers of `p`'s messages), sorted.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a process of this network.
    pub fn out_neighbors(&self, p: ProcessId) -> &[ProcessId] {
        &self.out_adj[p.index()]
    }

    /// In-neighbors of `p` (processes that can send to `p`), sorted.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a process of this network.
    pub fn in_neighbors(&self, p: ProcessId) -> &[ProcessId] {
        &self.in_adj[p.index()]
    }

    /// All channels, sorted by `(from, to)`.
    pub fn channels(&self) -> &[Channel] {
        &self.channels
    }
}

/// The bounded context `γ = ((Net, L, U), G_0)` in which protocols operate.
///
/// The set of initial global states `G_0` is a single canonical state here:
/// every process starts in an empty initial local state. (The paper's
/// results are per-run; richer initial-state sets would only add
/// uncertainty orthogonal to the timing analysis.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Context {
    net: Network,
    bounds: Bounds,
}

impl Context {
    /// Assembles a context from a network and matching bounds.
    ///
    /// # Errors
    ///
    /// Returns an error if `bounds` does not cover exactly the channels of
    /// `net`, or if a channel's bounds violate
    /// `1 <= L <= U <= MAX_BOUND`.
    pub fn new(net: Network, bounds: Bounds) -> Result<Self, BcmError> {
        for ch in net.channels() {
            let Some(b) = bounds.get(*ch) else {
                return Err(BcmError::MissingChannel {
                    from: ch.from,
                    to: ch.to,
                });
            };
            check_bounds(*ch, b.lower(), b.upper())?;
        }
        if bounds.len() != net.channels().len() {
            return Err(BcmError::IllegalRun {
                detail: "bounds mention channels missing from the network".into(),
            });
        }
        Ok(Context { net, bounds })
    }

    /// The network graph.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// The transmission-time bounds `L, U`.
    pub fn bounds(&self) -> &Bounds {
        &self.bounds
    }

    /// Convenience accessor for a single channel's bounds.
    pub fn channel_bounds(&self, from: ProcessId, to: ProcessId) -> Option<ChannelBounds> {
        self.bounds.get(Channel::new(from, to))
    }

    /// The largest upper bound over all channels (0 for a channel-free net).
    pub fn max_upper(&self) -> u64 {
        self.bounds.max_upper()
    }
}

/// Checks `1 <= lower <= upper <= MAX_BOUND` for the bounds of `ch`.
fn check_bounds(ch: Channel, lower: u64, upper: u64) -> Result<(), BcmError> {
    if lower == 0 || lower > upper || upper > MAX_BOUND {
        return Err(BcmError::InvalidBounds {
            from: ch.from,
            to: ch.to,
            lower,
            upper,
        });
    }
    Ok(())
}

/// Incremental builder for [`Network`] + [`Bounds`] (producing a [`Context`]).
///
/// See [`Network::builder`] for an example.
#[derive(Debug, Clone, Default)]
pub struct NetworkBuilder {
    names: Vec<String>,
    chans: BTreeMap<(ProcessId, ProcessId), ChannelBounds>,
}

impl NetworkBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a process with a display `name`, returning its identifier.
    pub fn add_process(&mut self, name: impl Into<String>) -> ProcessId {
        let id = ProcessId::new(self.names.len() as u32);
        self.names.push(name.into());
        id
    }

    /// Adds `count` processes named `p0, p1, …`, returning their ids.
    pub fn add_processes(&mut self, count: usize) -> Vec<ProcessId> {
        (0..count)
            .map(|_| {
                let n = self.names.len();
                self.add_process(format!("p{n}"))
            })
            .collect()
    }

    /// Adds the directed channel `(from, to)` with bounds `[lower, upper]`.
    ///
    /// # Errors
    ///
    /// Rejects unknown endpoints, self-loops, duplicate channels, and bounds
    /// violating `1 <= lower <= upper <= MAX_BOUND`.
    pub fn add_channel(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        lower: u64,
        upper: u64,
    ) -> Result<&mut Self, BcmError> {
        if from.index() >= self.names.len() {
            return Err(BcmError::UnknownProcess(from));
        }
        if to.index() >= self.names.len() {
            return Err(BcmError::UnknownProcess(to));
        }
        if from == to {
            return Err(BcmError::SelfLoop(from));
        }
        check_bounds(Channel::new(from, to), lower, upper)?;
        if self.chans.contains_key(&(from, to)) {
            return Err(BcmError::DuplicateChannel { from, to });
        }
        self.chans
            .insert((from, to), ChannelBounds::new(lower, upper));
        Ok(self)
    }

    /// Adds channels in both directions with the same bounds.
    ///
    /// # Errors
    ///
    /// Same conditions as [`NetworkBuilder::add_channel`], in either
    /// direction.
    pub fn add_bidirectional(
        &mut self,
        a: ProcessId,
        b: ProcessId,
        lower: u64,
        upper: u64,
    ) -> Result<&mut Self, BcmError> {
        self.add_channel(a, b, lower, upper)?;
        self.add_channel(b, a, lower, upper)?;
        Ok(self)
    }

    /// Finalizes the builder into a [`Context`].
    ///
    /// # Errors
    ///
    /// Returns [`BcmError::EmptyNetwork`] if no process was added.
    pub fn build(&self) -> Result<Context, BcmError> {
        if self.names.is_empty() {
            return Err(BcmError::EmptyNetwork);
        }
        let n = self.names.len();
        let mut out_adj = vec![Vec::new(); n];
        let mut in_adj = vec![Vec::new(); n];
        let mut channels = Vec::with_capacity(self.chans.len());
        let mut bounds = Bounds::with_processes(n);
        for (&(from, to), &b) in &self.chans {
            out_adj[from.index()].push(to);
            in_adj[to.index()].push(from);
            channels.push(Channel::new(from, to));
            bounds.insert(Channel::new(from, to), b);
        }
        for v in &mut out_adj {
            v.sort_unstable();
        }
        for v in &mut in_adj {
            v.sort_unstable();
        }
        let net = Network {
            names: self.names.clone(),
            out_adj,
            in_adj,
            channels,
        };
        Context::new(net, bounds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_proc() -> (NetworkBuilder, ProcessId, ProcessId) {
        let mut b = NetworkBuilder::new();
        let i = b.add_process("i");
        let j = b.add_process("j");
        (b, i, j)
    }

    #[test]
    fn builder_builds_adjacency() {
        let (mut b, i, j) = two_proc();
        let k = b.add_process("k");
        b.add_channel(i, j, 1, 2).unwrap();
        b.add_channel(i, k, 3, 4).unwrap();
        b.add_channel(k, i, 1, 1).unwrap();
        let ctx = b.build().unwrap();
        let net = ctx.network();
        assert_eq!(net.len(), 3);
        assert_eq!(net.out_neighbors(i), &[j, k]);
        assert_eq!(net.in_neighbors(i), &[k]);
        assert!(net.has_channel(i, k));
        assert!(!net.has_channel(j, i));
        assert_eq!(net.channels().len(), 3);
        assert_eq!(ctx.channel_bounds(i, k).unwrap().lower(), 3);
        assert_eq!(ctx.max_upper(), 4);
    }

    #[test]
    fn names_resolve() {
        let (b, i, j) = two_proc();
        let ctx = b.build().unwrap();
        assert_eq!(ctx.network().name(i), "i");
        assert_eq!(ctx.network().process_by_name("j"), Some(j));
        assert_eq!(ctx.network().process_by_name("zz"), None);
    }

    #[test]
    fn rejects_bad_channels() {
        let (mut b, i, j) = two_proc();
        assert!(matches!(
            b.add_channel(i, i, 1, 1),
            Err(BcmError::SelfLoop(_))
        ));
        assert!(matches!(
            b.add_channel(i, j, 0, 1),
            Err(BcmError::InvalidBounds { .. })
        ));
        assert!(matches!(
            b.add_channel(i, j, 3, 2),
            Err(BcmError::InvalidBounds { .. })
        ));
        b.add_channel(i, j, 1, 1).unwrap();
        assert!(matches!(
            b.add_channel(i, j, 1, 1),
            Err(BcmError::DuplicateChannel { .. })
        ));
        let unknown = ProcessId::new(99);
        assert!(matches!(
            b.add_channel(unknown, j, 1, 1),
            Err(BcmError::UnknownProcess(_))
        ));
        assert!(matches!(
            b.add_channel(i, unknown, 1, 1),
            Err(BcmError::UnknownProcess(_))
        ));
        // A bound above MAX_BOUND cannot be an edge weight: the builder
        // and `Context::new` refuse it, and accept MAX_BOUND itself.
        let (mut b, i, j) = two_proc();
        b.add_channel(i, j, 1, MAX_BOUND).unwrap();
        for upper in [MAX_BOUND + 1, 1 << 63] {
            assert!(matches!(
                b.add_channel(j, i, 1, upper),
                Err(BcmError::InvalidBounds { .. })
            ));
        }
        let net = b.build().unwrap().network().clone();
        let bounds = |upper| {
            let mut bounds = Bounds::new();
            bounds.insert(Channel::new(i, j), ChannelBounds::new(1, upper));
            bounds
        };
        assert!(Context::new(net.clone(), bounds(MAX_BOUND)).is_ok());
        assert!(matches!(
            Context::new(net, bounds(MAX_BOUND + 1)),
            Err(BcmError::InvalidBounds { .. })
        ));
    }

    #[test]
    fn rejects_empty_network() {
        let b = NetworkBuilder::new();
        assert!(matches!(b.build(), Err(BcmError::EmptyNetwork)));
    }

    #[test]
    fn bidirectional_adds_both() {
        let (mut b, i, j) = two_proc();
        b.add_bidirectional(i, j, 2, 5).unwrap();
        let ctx = b.build().unwrap();
        assert!(ctx.network().has_channel(i, j));
        assert!(ctx.network().has_channel(j, i));
    }

    #[test]
    fn channel_reversed() {
        let ch = Channel::new(ProcessId::new(1), ProcessId::new(2));
        assert_eq!(ch.reversed().from, ProcessId::new(2));
        assert_eq!(ch.reversed().to, ProcessId::new(1));
        assert_eq!(ch.to_string(), "(p1 -> p2)");
    }

    #[test]
    fn add_processes_names_sequentially() {
        let mut b = NetworkBuilder::new();
        let ids = b.add_processes(3);
        assert_eq!(ids.len(), 3);
        let ctx = b.build().unwrap();
        assert_eq!(ctx.network().name(ids[2]), "p2");
    }
}
