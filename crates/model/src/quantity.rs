//! Validated scalar quantities.
//!
//! The paper manipulates several physically distinct scalars — resource
//! capacity `A_v`, per-instance demand `D_f`, packet arrival rate `λ_r`,
//! service rate `μ_f`, delivery probability `P_r` and node utilization — all
//! of which would be bare `f64`s in a careless implementation. Each gets a
//! newtype here with validation at the boundary: values are finite, rates and
//! demands strictly positive, probabilities in `(0, 1]`. Downstream code can
//! therefore rely on these invariants without re-checking.

use std::fmt;
use std::iter::Sum;
use std::ops::Add;

use serde::{Deserialize, Serialize};

use crate::ModelError;

macro_rules! forward_display {
    ($name:ident, $unit:expr) => {
        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!("{}", $unit), self.0)
            }
        }
    };
}

/// CPU-bounded resource capacity `A_v` of a computing node, in abstract
/// resource units (the paper's unit: 64-byte packets at 10 kpps).
///
/// A capacity is finite and non-negative. **Zero capacity is deliberately
/// constructible** and models a node that is administratively offline; the
/// semantics are fully defined rather than rejected at construction:
/// [`fits`](Self::fits) refuses every positive demand (so placers never
/// select such a node), [`saturating_sub`](Self::saturating_sub) stays at
/// zero, and [`utilization_of`](Self::utilization_of) reports
/// [`Utilization::ZERO`] instead of dividing by zero.
///
/// # Examples
///
/// ```
/// use nfv_model::{Capacity, Demand};
/// # fn main() -> Result<(), nfv_model::ModelError> {
/// let cap = Capacity::new(100.0)?;
/// let demand = Demand::new(30.0)?;
/// assert!(cap.fits(demand));
/// assert_eq!(cap.saturating_sub(demand).value(), 70.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Capacity(f64);

impl Capacity {
    /// Zero capacity: a node that can host nothing (a dark node).
    pub const ZERO: Capacity = Capacity(0.0);

    /// Creates a capacity of `units` resource units.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidQuantity`] if `units` is negative, NaN or
    /// infinite.
    pub fn new(units: f64) -> Result<Self, ModelError> {
        if units.is_finite() && units >= 0.0 {
            Ok(Self(units))
        } else {
            Err(ModelError::invalid_quantity("capacity", units))
        }
    }

    /// The capacity in resource units.
    #[must_use]
    pub const fn value(self) -> f64 {
        self.0
    }

    /// Whether `demand` fits entirely within this capacity.
    #[must_use]
    pub fn fits(self, demand: Demand) -> bool {
        demand.value() <= self.0
    }

    /// Remaining capacity after serving `demand`, clamped at zero.
    #[must_use]
    pub fn saturating_sub(self, demand: Demand) -> Self {
        Self((self.0 - demand.value()).max(0.0))
    }

    /// Fraction of this capacity consumed by `demand` (the paper's
    /// per-node utilization term in Eq. (13)).
    ///
    /// Returns [`Utilization::ZERO`] for a zero capacity, which can never
    /// host any demand.
    #[must_use]
    pub fn utilization_of(self, demand: Demand) -> Utilization {
        if self.0 == 0.0 {
            Utilization::ZERO
        } else {
            Utilization::from_ratio(demand.value() / self.0)
        }
    }
}

impl Add for Capacity {
    type Output = Capacity;

    fn add(self, rhs: Self) -> Self {
        Self(self.0 + rhs.0)
    }
}

impl Sum for Capacity {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        Self(iter.map(|c| c.0).sum())
    }
}

forward_display!(Capacity, " units");

/// Resource demand `D_f` of a single service instance of a VNF, in the same
/// abstract units as [`Capacity`].
///
/// Demands are finite and non-negative. A zero demand is permitted (a VNF
/// whose footprint is negligible at the chosen granularity) so that workload
/// generators can produce degenerate corner cases, but most constructors in
/// higher-level crates require positive demand.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Demand(f64);

impl Demand {
    /// Zero demand.
    pub const ZERO: Demand = Demand(0.0);

    /// Creates a demand of `units` resource units.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidQuantity`] if `units` is negative, NaN or
    /// infinite.
    pub fn new(units: f64) -> Result<Self, ModelError> {
        if units.is_finite() && units >= 0.0 {
            Ok(Self(units))
        } else {
            Err(ModelError::invalid_quantity("demand", units))
        }
    }

    /// The demand in resource units.
    #[must_use]
    pub const fn value(self) -> f64 {
        self.0
    }

    /// Total demand of `instances` identical service instances, the paper's
    /// `D_f^sum = M_f · D_f`.
    #[must_use]
    pub fn scaled(self, instances: u32) -> Self {
        Self(self.0 * f64::from(instances))
    }
}

impl Add for Demand {
    type Output = Demand;

    fn add(self, rhs: Self) -> Self {
        Self(self.0 + rhs.0)
    }
}

impl Sum for Demand {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        Self(iter.map(|d| d.0).sum())
    }
}

forward_display!(Demand, " units");

/// Average packet arrival rate `λ_r` of a request, in packets per second.
///
/// Arrival rates are finite and strictly positive: a request that never sends
/// packets is not a request.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct ArrivalRate(f64);

impl ArrivalRate {
    /// Creates an arrival rate of `pps` packets per second.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidQuantity`] if `pps` is not finite and
    /// strictly positive.
    pub fn new(pps: f64) -> Result<Self, ModelError> {
        if pps.is_finite() && pps > 0.0 {
            Ok(Self(pps))
        } else {
            Err(ModelError::invalid_quantity("arrival rate", pps))
        }
    }

    /// The rate in packets per second.
    #[must_use]
    pub const fn value(self) -> f64 {
        self.0
    }

    /// Equivalent arrival rate after loss feedback, the paper's `λ_r / P_r`
    /// (Eq. (7)): lost packets are retransmitted, inflating the effective
    /// load seen by every instance on the chain.
    #[must_use]
    pub fn inflated_by_loss(self, delivery: DeliveryProbability) -> Self {
        Self(self.0 / delivery.value())
    }
}

impl Add for ArrivalRate {
    type Output = ArrivalRate;

    fn add(self, rhs: Self) -> Self {
        Self(self.0 + rhs.0)
    }
}

forward_display!(ArrivalRate, " pps");

/// Average service rate `μ_f` of one service instance of a VNF, in packets
/// per second. Service times are exponentially distributed with this rate.
///
/// Service rates are finite and strictly positive (`μ_f > 0` in the paper).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct ServiceRate(f64);

impl ServiceRate {
    /// Creates a service rate of `pps` packets per second.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidQuantity`] if `pps` is not finite and
    /// strictly positive.
    pub fn new(pps: f64) -> Result<Self, ModelError> {
        if pps.is_finite() && pps > 0.0 {
            Ok(Self(pps))
        } else {
            Err(ModelError::invalid_quantity("service rate", pps))
        }
    }

    /// The rate in packets per second.
    #[must_use]
    pub const fn value(self) -> f64 {
        self.0
    }

    /// Mean service time of one packet, `1/μ_f`, in seconds.
    #[must_use]
    pub fn mean_service_time(self) -> f64 {
        1.0 / self.0
    }
}

forward_display!(ServiceRate, " pps");

/// Probability `P_r ∈ (0, 1]` that a packet of a request is received
/// correctly by its destination; `1 − P_r` is the packet loss rate.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct DeliveryProbability(f64);

impl DeliveryProbability {
    /// Lossless delivery, `P = 1`.
    pub const PERFECT: DeliveryProbability = DeliveryProbability(1.0);

    /// Creates a delivery probability.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidQuantity`] unless `0 < p ≤ 1`.
    pub fn new(p: f64) -> Result<Self, ModelError> {
        if p.is_finite() && p > 0.0 && p <= 1.0 {
            Ok(Self(p))
        } else {
            Err(ModelError::invalid_quantity("delivery probability", p))
        }
    }

    /// Creates a delivery probability from a loss rate `1 − P`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidQuantity`] unless `0 ≤ loss < 1`.
    pub fn from_loss_rate(loss: f64) -> Result<Self, ModelError> {
        if loss.is_finite() && (0.0..1.0).contains(&loss) {
            Ok(Self(1.0 - loss))
        } else {
            Err(ModelError::invalid_quantity("loss rate", loss))
        }
    }

    /// The probability value.
    #[must_use]
    pub const fn value(self) -> f64 {
        self.0
    }

    /// The complementary packet loss rate `1 − P`.
    #[must_use]
    pub fn loss_rate(self) -> f64 {
        1.0 - self.0
    }
}

impl fmt::Display for DeliveryProbability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P={}", self.0)
    }
}

/// Fraction of a resource in use. Values are clamped to `[0, ∞)`; a
/// utilization above `1.0` indicates oversubscription and is representable so
/// that infeasible configurations can be reported rather than silently
/// clamped.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Utilization(f64);

impl Utilization {
    /// An idle resource.
    pub const ZERO: Utilization = Utilization(0.0);

    /// A fully utilized resource.
    pub const FULL: Utilization = Utilization(1.0);

    /// Creates a utilization from a raw ratio, clamping negatives and NaN to
    /// zero.
    #[must_use]
    pub fn from_ratio(ratio: f64) -> Self {
        if ratio.is_finite() && ratio > 0.0 {
            Self(ratio)
        } else {
            Self(0.0)
        }
    }

    /// The utilization as a ratio (1.0 = 100%).
    #[must_use]
    pub const fn value(self) -> f64 {
        self.0
    }

    /// The utilization as a percentage.
    #[must_use]
    pub fn percent(self) -> f64 {
        self.0 * 100.0
    }

    /// Whether the resource is oversubscribed (ratio > 1).
    #[must_use]
    pub fn is_oversubscribed(self) -> bool {
        self.0 > 1.0
    }
}

impl fmt::Display for Utilization {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}%", self.percent())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_rejects_negative_and_non_finite() {
        assert!(Capacity::new(-1.0).is_err());
        assert!(Capacity::new(f64::NAN).is_err());
        assert!(Capacity::new(f64::INFINITY).is_err());
        assert!(Capacity::new(0.0).is_ok());
    }

    #[test]
    fn capacity_fit_and_subtraction() {
        let cap = Capacity::new(50.0).unwrap();
        assert!(cap.fits(Demand::new(50.0).unwrap()));
        assert!(!cap.fits(Demand::new(50.5).unwrap()));
        assert_eq!(
            cap.saturating_sub(Demand::new(60.0).unwrap()),
            Capacity::new(0.0).unwrap()
        );
    }

    #[test]
    fn capacity_utilization_handles_zero_capacity() {
        let zero = Capacity::new(0.0).unwrap();
        assert_eq!(
            zero.utilization_of(Demand::new(5.0).unwrap()),
            Utilization::ZERO
        );
    }

    /// Pins the decision that `Capacity::new(0.0)` is *defined* (an
    /// administratively offline node), not rejected: every operation has
    /// total, division-free semantics.
    #[test]
    fn zero_capacity_is_an_offline_node_with_total_semantics() {
        let zero = Capacity::new(0.0).unwrap();
        // No positive demand fits, so placers can never select the node.
        assert!(!zero.fits(Demand::new(1e-12).unwrap()));
        assert!(!zero.fits(Demand::new(5.0).unwrap()));
        // Degenerate zero demand trivially fits.
        assert!(zero.fits(Demand::ZERO));
        // Subtraction saturates instead of going negative.
        assert_eq!(zero.saturating_sub(Demand::new(3.0).unwrap()), zero);
        // 0/0 is defined as idle, not NaN.
        assert_eq!(zero.utilization_of(Demand::ZERO), Utilization::ZERO);
        assert!(!zero
            .utilization_of(Demand::new(9.0).unwrap())
            .value()
            .is_nan());
    }

    #[test]
    fn demand_scaling_matches_paper_dsum() {
        let d = Demand::new(12.5).unwrap();
        assert_eq!(d.scaled(4).value(), 50.0);
        assert_eq!(d.scaled(0).value(), 0.0);
    }

    #[test]
    fn demand_sums() {
        let total: Demand = [1.0, 2.0, 3.5]
            .iter()
            .map(|&v| Demand::new(v).unwrap())
            .sum();
        assert_eq!(total.value(), 6.5);
    }

    #[test]
    fn arrival_rate_must_be_positive() {
        assert!(ArrivalRate::new(0.0).is_err());
        assert!(ArrivalRate::new(-3.0).is_err());
        assert!(ArrivalRate::new(1e-9).is_ok());
    }

    #[test]
    fn loss_feedback_inflates_rate() {
        let lam = ArrivalRate::new(98.0).unwrap();
        let p = DeliveryProbability::new(0.98).unwrap();
        let inflated = lam.inflated_by_loss(p);
        assert!((inflated.value() - 100.0).abs() < 1e-9);
        // Perfect delivery leaves the rate unchanged.
        assert_eq!(lam.inflated_by_loss(DeliveryProbability::PERFECT), lam);
    }

    #[test]
    fn delivery_probability_bounds() {
        assert!(DeliveryProbability::new(0.0).is_err());
        assert!(DeliveryProbability::new(1.0 + 1e-12).is_err());
        assert!(DeliveryProbability::new(1.0).is_ok());
        let p = DeliveryProbability::from_loss_rate(0.02).unwrap();
        assert!((p.value() - 0.98).abs() < 1e-12);
        assert!((p.loss_rate() - 0.02).abs() < 1e-12);
        assert!(DeliveryProbability::from_loss_rate(1.0).is_err());
    }

    #[test]
    fn service_rate_mean_time_is_reciprocal() {
        let mu = ServiceRate::new(200.0).unwrap();
        assert!((mu.mean_service_time() - 0.005).abs() < 1e-12);
    }

    #[test]
    fn utilization_clamps_and_reports_oversubscription() {
        assert_eq!(Utilization::from_ratio(-0.5), Utilization::ZERO);
        assert_eq!(Utilization::from_ratio(f64::NAN), Utilization::ZERO);
        assert!(Utilization::from_ratio(1.25).is_oversubscribed());
        assert!(!Utilization::FULL.is_oversubscribed());
        assert_eq!(Utilization::from_ratio(0.42).percent(), 42.0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Capacity::new(5.0).unwrap().to_string(), "5 units");
        assert_eq!(ArrivalRate::new(10.0).unwrap().to_string(), "10 pps");
        assert_eq!(DeliveryProbability::PERFECT.to_string(), "P=1");
        assert_eq!(Utilization::from_ratio(0.5).to_string(), "50.00%");
    }
}
