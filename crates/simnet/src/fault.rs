//! Deterministic fault injection: message loss, partitions, crashes, churn.
//!
//! A [`FaultPlan`] describes every fault to inject into one run. It is
//! attached to a [`crate::Simulation`] via
//! [`crate::Simulation::with_faults`] and interpreted by the event loop:
//!
//! * **Message loss** — every message can be dropped with a global
//!   probability ([`FaultPlan::with_loss`]), a per-link probability
//!   ([`FaultPlan::with_link_loss`]), or by script: the *n*-th message on a
//!   link ([`FaultPlan::drop_nth`]) or every message on a link inside a
//!   virtual-time window ([`FaultPlan::drop_link_window`]).
//! * **Partitions** — a pair of [`Region`]s can be disconnected for a time
//!   window ([`FaultPlan::partition`]); messages crossing the cut in either
//!   direction are dropped until the window heals.
//! * **Crashes** — a node can crash at time *t* ([`FaultPlan::crash`]):
//!   everything delivered to it while down (messages *and* timers) is
//!   silently discarded. With a restart time *t′* the node comes back with
//!   its last state and gets a [`crate::runtime::Node::on_restart`] call to
//!   re-arm timers or re-announce itself.
//! * **Churn** — [`FaultPlan::churn`] is a crash with a mandatory rejoin,
//!   the way a mobile client leaves and returns.
//! * **Connection drops** — a node pair can lose its (virtual) connection
//!   for a time window ([`FaultPlan::conn_drop`]): messages between the
//!   two nodes are dropped in both directions until the window ends, and
//!   the boundaries are recorded as `fault.conn.drop` /
//!   `fault.conn.restore` events. This is the deterministic twin of a TCP
//!   disconnect + reconnect in `spyker-transport::tcp`, so the simulator
//!   exercises the same disconnect-as-fault recovery path as a real
//!   deployment.
//! * **Byzantine clients** — a node can be marked adversarial
//!   ([`FaultPlan::byzantine`]): every model update it sends is corrupted
//!   in flight by a [`ByzantineAttack`] (sign-flip, scaling, gaussian
//!   noise, or NaN injection). The transformation is applied by the
//!   transport via [`crate::runtime::WireSize::corrupt`], so actor code
//!   stays honest and the attack composes with every other fault.
//!
//! Probabilistic drops draw from a dedicated RNG stream seeded from the
//! simulation seed, so runs stay bit-reproducible and an empty plan
//! ([`FaultPlan::none`]) consumes zero random draws — a run without faults
//! is byte-identical to one built before this module existed. Byzantine
//! noise/NaN attacks draw from the same fault stream.
//!
//! Every injected fault is recorded in [`crate::Metrics`]:
//!
//! | counter                    | meaning                                   |
//! |----------------------------|-------------------------------------------|
//! | `fault.dropped`            | messages dropped in flight (all causes)   |
//! | `fault.dropped.loss`       | … by probabilistic loss                   |
//! | `fault.dropped.scripted`   | … by a scripted drop                      |
//! | `fault.dropped.partition`  | … by an active partition                  |
//! | `fault.dropped.conn`       | … by a dropped connection                 |
//! | `fault.conn.drop`          | connection-drop windows that opened       |
//! | `fault.conn.restore`       | connection-drop windows that healed       |
//! | `fault.discarded`          | events discarded at a crashed node        |
//! | `fault.crashes`            | crash events that took effect             |
//! | `fault.restarts`           | restart events that took effect           |
//! | `fault.partitions`         | partition windows installed               |
//! | `fault.byzantine`          | messages corrupted by a Byzantine sender  |
//! | `fault.byzantine.signflip` | … by sign-flip                            |
//! | `fault.byzantine.scale`    | … by scaling                              |
//! | `fault.byzantine.noise`    | … by gaussian noise                       |
//! | `fault.byzantine.nan`      | … by NaN injection                        |

use crate::net::Region;
use crate::runtime::NodeId;
use crate::time::SimTime;

/// A scripted (non-probabilistic) message drop.
#[derive(Debug, Clone, PartialEq)]
pub enum ScriptedDrop {
    /// Drop the `nth` (0-based) message sent from `from` to `to`.
    NthOnLink {
        /// Sending node.
        from: NodeId,
        /// Receiving node.
        to: NodeId,
        /// 0-based index of the message to drop on this link.
        nth: u64,
    },
    /// Drop every message sent from `from` to `to` in `[start, end)`.
    LinkWindow {
        /// Sending node.
        from: NodeId,
        /// Receiving node.
        to: NodeId,
        /// Window start (inclusive, send time).
        start: SimTime,
        /// Window end (exclusive, send time).
        end: SimTime,
    },
}

/// A region-pair partition over a virtual-time window.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionWindow {
    /// One side of the cut.
    pub a: Region,
    /// The other side of the cut.
    pub b: Region,
    /// When the partition starts (inclusive, send time).
    pub start: SimTime,
    /// When the partition heals (exclusive, send time).
    pub end: SimTime,
}

/// A node-pair connection outage over a virtual-time window.
///
/// While the window is open, messages between `a` and `b` (both
/// directions) are dropped — the way a severed TCP connection eats
/// everything in flight until the dialer reconnects.
#[derive(Debug, Clone, PartialEq)]
pub struct ConnWindow {
    /// One endpoint of the connection.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// When the connection drops (inclusive, send time).
    pub start: SimTime,
    /// When the connection is re-established (exclusive, send time).
    pub end: SimTime,
}

/// A node crash, optionally followed by a restart with retained state.
#[derive(Debug, Clone, PartialEq)]
pub struct CrashEvent {
    /// The node that crashes.
    pub node: NodeId,
    /// Crash time.
    pub at: SimTime,
    /// Restart time, strictly after `at`; `None` means the node stays down.
    pub restart: Option<SimTime>,
}

/// The adversarial transformation a Byzantine client applies to every model
/// update it sends — the update-poisoning attack classes of the Byzantine
/// FL literature.
///
/// How (and whether) an attack applies to a concrete message type is decided
/// by that type's [`crate::runtime::WireSize::corrupt`] implementation; the
/// default is a no-op, so only payloads that opt in (client model updates)
/// can be poisoned.
#[derive(Debug, Clone, PartialEq)]
pub enum ByzantineAttack {
    /// Negate every parameter (gradient sign-flip / model negation).
    SignFlip,
    /// Multiply every parameter by `factor` (scaling / boosting attack).
    Scale {
        /// Multiplier applied to every parameter.
        factor: f32,
    },
    /// Add i.i.d. `N(0, sigma^2)` noise to every parameter.
    GaussianNoise {
        /// Standard deviation of the injected noise.
        sigma: f32,
    },
    /// Replace each parameter with `NaN` independently with probability
    /// `prob` (a crash-the-aggregator poisoning attack).
    NanInject {
        /// Per-parameter corruption probability in `[0, 1]`.
        prob: f64,
    },
}

impl ByzantineAttack {
    /// Short label used as the `fault.byzantine.<label>` metric suffix.
    pub fn label(&self) -> &'static str {
        match self {
            ByzantineAttack::SignFlip => "signflip",
            ByzantineAttack::Scale { .. } => "scale",
            ByzantineAttack::GaussianNoise { .. } => "noise",
            ByzantineAttack::NanInject { .. } => "nan",
        }
    }
}

/// One adversarial node and the attack it mounts on everything it sends.
#[derive(Debug, Clone, PartialEq)]
pub struct ByzantineClient {
    /// The compromised node.
    pub node: NodeId,
    /// The attack it applies to outgoing model updates.
    pub attack: ByzantineAttack,
}

/// The set of faults to inject into one simulation run.
///
/// See the [module docs](self) for semantics. The default plan is
/// [`FaultPlan::none`]: no faults, no RNG draws, byte-identical runs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Global per-message drop probability in `[0, 1]`.
    pub loss_prob: f64,
    /// Per-link drop probability overrides (take precedence over
    /// [`FaultPlan::loss_prob`] for their link).
    pub link_loss: Vec<(NodeId, NodeId, f64)>,
    /// Scripted drops.
    pub drops: Vec<ScriptedDrop>,
    /// Region-pair partitions.
    pub partitions: Vec<PartitionWindow>,
    /// Node-pair connection outages.
    pub conns: Vec<ConnWindow>,
    /// Node crashes (and optional restarts).
    pub crashes: Vec<CrashEvent>,
    /// Byzantine (adversarial) nodes and their attacks.
    pub byzantine: Vec<ByzantineClient>,
}

impl FaultPlan {
    /// The empty plan: inject nothing.
    pub fn none() -> Self {
        Self::default()
    }

    /// `true` when the plan injects nothing at all (the fast path: the
    /// event loop skips every fault check and RNG draw).
    pub fn is_none(&self) -> bool {
        self.loss_prob == 0.0
            && self.link_loss.is_empty()
            && self.drops.is_empty()
            && self.partitions.is_empty()
            && self.conns.is_empty()
            && self.crashes.is_empty()
            && self.byzantine.is_empty()
    }

    /// `true` when any probabilistic or scripted message-drop rule exists
    /// (crash-only plans skip the per-send checks entirely).
    pub(crate) fn has_message_faults(&self) -> bool {
        self.loss_prob > 0.0
            || !self.link_loss.is_empty()
            || !self.drops.is_empty()
            || !self.partitions.is_empty()
            || !self.conns.is_empty()
    }

    /// Sets the global per-message loss probability (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn with_loss(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "loss probability must be in [0, 1]"
        );
        self.loss_prob = p;
        self
    }

    /// Sets a per-link loss probability override (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn with_link_loss(mut self, from: NodeId, to: NodeId, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "loss probability must be in [0, 1]"
        );
        self.link_loss.push((from, to, p));
        self
    }

    /// Drops the `nth` (0-based) message sent from `from` to `to`
    /// (builder style).
    pub fn drop_nth(mut self, from: NodeId, to: NodeId, nth: u64) -> Self {
        self.drops.push(ScriptedDrop::NthOnLink { from, to, nth });
        self
    }

    /// Drops every message from `from` to `to` sent in `[start, end)`
    /// (builder style).
    pub fn drop_link_window(
        mut self,
        from: NodeId,
        to: NodeId,
        start: SimTime,
        end: SimTime,
    ) -> Self {
        self.drops.push(ScriptedDrop::LinkWindow {
            from,
            to,
            start,
            end,
        });
        self
    }

    /// Partitions regions `a` and `b` (both directions) during
    /// `[start, end)` (builder style).
    pub fn partition(mut self, a: Region, b: Region, start: SimTime, end: SimTime) -> Self {
        self.partitions.push(PartitionWindow { a, b, start, end });
        self
    }

    /// Drops the connection between nodes `a` and `b` (both directions)
    /// during `[start, end)` (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `end <= start`.
    pub fn conn_drop(mut self, a: NodeId, b: NodeId, start: SimTime, end: SimTime) -> Self {
        assert!(end > start, "connection must restore after it drops");
        self.conns.push(ConnWindow { a, b, start, end });
        self
    }

    /// Crashes `node` at `at`; with `restart = Some(t)` the node comes back
    /// at `t` with its state intact and an
    /// [`crate::runtime::Node::on_restart`] call (builder style).
    ///
    /// # Panics
    ///
    /// Panics if the restart time is not after the crash time.
    pub fn crash(mut self, node: NodeId, at: SimTime, restart: Option<SimTime>) -> Self {
        if let Some(t) = restart {
            assert!(t > at, "restart must come after the crash");
        }
        self.crashes.push(CrashEvent { node, at, restart });
        self
    }

    /// Client churn: `node` leaves at `leave` and rejoins at `rejoin`
    /// (builder style). Equivalent to a crash with a mandatory restart.
    ///
    /// # Panics
    ///
    /// Panics if `rejoin <= leave`.
    pub fn churn(self, node: NodeId, leave: SimTime, rejoin: SimTime) -> Self {
        self.crash(node, leave, Some(rejoin))
    }

    /// Marks `node` as Byzantine: every model update it sends is corrupted
    /// in flight by `attack` (builder style). A later entry for the same
    /// node replaces an earlier one.
    ///
    /// # Panics
    ///
    /// Panics if a [`ByzantineAttack::NanInject`] probability is outside
    /// `[0, 1]`.
    pub fn byzantine(mut self, node: NodeId, attack: ByzantineAttack) -> Self {
        if let ByzantineAttack::NanInject { prob } = attack {
            assert!(
                (0.0..=1.0).contains(&prob),
                "NaN-injection probability must be in [0, 1]"
            );
        }
        self.byzantine.push(ByzantineClient { node, attack });
        self
    }

    /// The attack mounted by `node`, if it is Byzantine (the last matching
    /// entry wins, mirroring [`FaultPlan::loss_for`]).
    pub(crate) fn attack_for(&self, node: NodeId) -> Option<&ByzantineAttack> {
        self.byzantine
            .iter()
            .rev()
            .find(|b| b.node == node)
            .map(|b| &b.attack)
    }

    /// The effective loss probability for a `from -> to` send: the last
    /// matching per-link override, else the global probability.
    pub(crate) fn loss_for(&self, from: NodeId, to: NodeId) -> f64 {
        self.link_loss
            .iter()
            .rev()
            .find(|&&(f, t, _)| f == from && t == to)
            .map_or(self.loss_prob, |&(_, _, p)| p)
    }

    /// `true` if some partition window cuts `ra <-> rb` at time `at`.
    pub(crate) fn partitioned(&self, ra: Region, rb: Region, at: SimTime) -> bool {
        self.partitions.iter().any(|p| {
            ((p.a == ra && p.b == rb) || (p.a == rb && p.b == ra)) && at >= p.start && at < p.end
        })
    }

    /// `true` if the connection between nodes `x` and `y` is down at `at`.
    pub(crate) fn conn_down(&self, x: NodeId, y: NodeId, at: SimTime) -> bool {
        self.conns.iter().any(|c| {
            ((c.a == x && c.b == y) || (c.a == y && c.b == x)) && at >= c.start && at < c.end
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_none() {
        assert!(FaultPlan::none().is_none());
        assert!(!FaultPlan::none().with_loss(0.1).is_none());
        assert!(!FaultPlan::none().drop_nth(0, 1, 0).is_none());
        assert!(!FaultPlan::none()
            .crash(0, SimTime::from_secs(1), None)
            .is_none());
    }

    #[test]
    fn link_override_beats_global_loss() {
        let plan = FaultPlan::none().with_loss(0.5).with_link_loss(0, 1, 0.0);
        assert_eq!(plan.loss_for(0, 1), 0.0);
        assert_eq!(plan.loss_for(1, 0), 0.5);
        assert_eq!(plan.loss_for(2, 3), 0.5);
    }

    #[test]
    fn partition_windows_are_symmetric_and_half_open() {
        let plan = FaultPlan::none().partition(
            Region::Paris,
            Region::Sydney,
            SimTime::from_secs(1),
            SimTime::from_secs(2),
        );
        let at = SimTime::from_millis(1500);
        assert!(plan.partitioned(Region::Paris, Region::Sydney, at));
        assert!(plan.partitioned(Region::Sydney, Region::Paris, at));
        assert!(!plan.partitioned(Region::Paris, Region::Sydney, SimTime::from_millis(999)));
        assert!(!plan.partitioned(Region::Paris, Region::Sydney, SimTime::from_secs(2)));
        assert!(!plan.partitioned(Region::Paris, Region::California, at));
    }

    #[test]
    fn conn_windows_are_symmetric_and_half_open() {
        let plan = FaultPlan::none().conn_drop(1, 5, SimTime::from_secs(1), SimTime::from_secs(2));
        assert!(!plan.is_none());
        assert!(plan.has_message_faults());
        let at = SimTime::from_millis(1500);
        assert!(plan.conn_down(1, 5, at));
        assert!(plan.conn_down(5, 1, at));
        assert!(!plan.conn_down(1, 5, SimTime::from_millis(999)));
        assert!(!plan.conn_down(1, 5, SimTime::from_secs(2)));
        assert!(!plan.conn_down(1, 4, at));
    }

    #[test]
    #[should_panic(expected = "connection must restore after it drops")]
    fn conn_restore_before_drop_is_rejected() {
        let _ = FaultPlan::none().conn_drop(0, 1, SimTime::from_secs(2), SimTime::from_secs(2));
    }

    #[test]
    #[should_panic(expected = "restart must come after the crash")]
    fn restart_before_crash_is_rejected() {
        let _ = FaultPlan::none().crash(0, SimTime::from_secs(2), Some(SimTime::from_secs(1)));
    }

    #[test]
    fn byzantine_plan_is_not_none_and_last_entry_wins() {
        let plan = FaultPlan::none()
            .byzantine(4, ByzantineAttack::SignFlip)
            .byzantine(4, ByzantineAttack::Scale { factor: 10.0 });
        assert!(!plan.is_none());
        // Byzantine nodes alone add no message-drop rules.
        assert!(!plan.has_message_faults());
        assert_eq!(
            plan.attack_for(4),
            Some(&ByzantineAttack::Scale { factor: 10.0 })
        );
        assert_eq!(plan.attack_for(5), None);
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1]")]
    fn nan_injection_probability_is_validated() {
        let _ = FaultPlan::none().byzantine(0, ByzantineAttack::NanInject { prob: 1.5 });
    }

    #[test]
    fn attack_labels_are_stable() {
        assert_eq!(ByzantineAttack::SignFlip.label(), "signflip");
        assert_eq!(ByzantineAttack::Scale { factor: 2.0 }.label(), "scale");
        assert_eq!(
            ByzantineAttack::GaussianNoise { sigma: 1.0 }.label(),
            "noise"
        );
        assert_eq!(ByzantineAttack::NanInject { prob: 0.5 }.label(), "nan");
    }

    #[test]
    fn churn_is_crash_plus_restart() {
        let plan = FaultPlan::none().churn(3, SimTime::from_secs(1), SimTime::from_secs(4));
        assert_eq!(
            plan.crashes,
            vec![CrashEvent {
                node: 3,
                at: SimTime::from_secs(1),
                restart: Some(SimTime::from_secs(4)),
            }]
        );
    }
}
